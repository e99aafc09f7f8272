"""Tests for the benchmark's own code. Run from the repository root:

    python -m pytest bench/test_bench.py
"""

import contextlib
import io
import json
import sys
from fractions import Fraction

import pytest

import calibration
import checks
import run
import tracing
import workloads

sys.path.insert(0, str(run.SRC))

from mzvfactor import bijection, cli, numeric, pi_constants, series, suites  # noqa: E402


# ---- self time ------------------------------------------------------------

def test_self_time_without_children_is_the_duration():
    assert tracing.self_time(2.0, 5.0, []) == 3.0


def test_self_time_subtracts_disjoint_and_nested_children():
    # (2, 3) lies inside (1, 4): the union is (1, 4) plus (6, 7)
    assert tracing.self_time(0.0, 10.0, [(6.0, 7.0), (1.0, 4.0), (2.0, 3.0)]) == 6.0


def test_self_time_counts_overlapping_children_once():
    assert tracing.self_time(0.0, 10.0, [(1.0, 5.0), (3.0, 8.0)]) == 3.0


def test_self_time_clips_children_to_the_span():
    assert tracing.self_time(0.0, 10.0, [(-2.0, 1.0), (9.0, 12.0)]) == 8.0


# ---- latency percentiles ----------------------------------------------------

@pytest.mark.parametrize("n, q", [(20, 50), (30, 66), (40, 75), (55, 81), (59, 83), (100, 90), (1000, 99)])
def test_tail_percentile_keeps_ten_beyond(n, q):
    assert run.tail_percentile(n) == q


def test_tail_percentile_is_the_highest_with_ten_beyond():
    for n in range(20, 400):
        q = run.tail_percentile(n)
        beyond = lambda p: n - -(-p * n // 100)
        assert beyond(q) >= 10
        assert q == 99 or beyond(q + 1) < 10


def test_tail_percentile_needs_twenty_samples():
    with pytest.raises(ValueError):
        run.tail_percentile(19)


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(100, 0, -1)]
    assert run.percentile(values, 50) == 50.0
    assert run.percentile(values, 90) == 90.0
    assert run.percentile([3.0], 50) == 3.0


# ---- calibration ------------------------------------------------------------

def test_scale_divides_by_the_median_unit_beside_each_request():
    ref = calibration.REFERENCE_S
    gaps = [[ref], [2 * ref], [2 * ref, 2 * ref, 100 * ref], [ref]]
    scaled = calibration.scale([1.0, 4.0, 6.0], gaps)
    # request 0 sees gaps 0-2: units ref, 2ref, 2ref, 2ref, 100ref -> 2ref
    # request 1 sees gaps 0-3: the same and one more ref -> 2ref
    # request 2 sees gaps 1-3: 2ref, 2ref, 2ref, 100ref, ref -> 2ref
    assert scaled == [0.5, 2.0, 3.0]


def test_scale_needs_units_around_every_request():
    with pytest.raises(ValueError):
        calibration.scale([1.0, 1.0], [[1.0], [1.0]])
    with pytest.raises(ValueError):
        calibration.scale([1.0], [[1.0], []])


def test_gap_times_a_share_of_the_request_and_at_least_one_unit():
    assert len(calibration.gap(0.0)) == 1
    n = round(calibration.SHARE * 0.2 / calibration.REFERENCE_S)
    assert n > 1 and len(calibration.gap(0.2)) == n


def test_calibration_work_is_fixed():
    assert calibration.work() == calibration.work()
    assert calibration.unit_s() > 0


def test_latency_figures_take_medians_over_passes():
    passes = [[1.0] * 10 + [2.0] * 10, [3.0] * 10 + [2.0] * 10, [2.0] * 20]
    figures = run.latency_figures(passes)
    assert figures["wall_s"] == 40.0
    assert figures["latency_p50_s"] == 2.0 and figures["latency_tail_s"] == 2.0


# ---- generators -------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_requests_other_seed_other_requests(name):
    gen = workloads.WORKLOADS[name]
    assert gen(7) == gen(7)
    assert gen(7) != gen(8)
    assert sorted(map(tuple, gen(7))) != sorted(map(tuple, gen(8)))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_requests_stay_in_the_documented_domain(name):
    parser = cli.build_parser()
    for seed in range(25):
        reqs = workloads.WORKLOADS[name](seed)
        assert len(reqs) >= 2 * run.TAIL_BEYOND
        for argv in reqs:
            parser.parse_args(argv)          # exits on an argv argparse rejects
            if argv[:2] == ["verify", "residuals"]:
                assert int(checks._flag(argv, "--N")) <= 60
                assert 2 <= int(checks._flag(argv, "--k")) <= 4
            elif argv[0] == "bijection-dump":
                assert 2 <= int(checks._flag(argv, "--k")) <= 5
                assert int(checks._flag(argv, "--bound")) <= 60
            elif argv[:2] == ["compute", "p-eval"]:
                assert not any(a == "--x" for a in argv)   # only the --x= form
                x, n = Fraction(checks._flag(argv, "--x")), int(checks._flag(argv, "--N"))
                assert abs(x) <= Fraction(9, 10) and 1 - abs(x) >= Fraction(1, n)
                assert 500 <= n <= 4000
                assert 64 <= int(checks._flag(argv, "--precision")) <= 256
            if "--precision" in argv and argv[:2] != ["compute", "p-eval"]:
                assert 64 <= int(checks._flag(argv, "--precision")) <= 224


def test_mzv_bands_keep_one_escalation_path():
    """Each band's precisions take the same mzv_limit attempts at every k."""
    for ks, lo, hi, _ in workloads._MZV_BANDS:
        if lo > 150:
            continue                      # the wider bands take seconds to probe
        for k in ks:
            paths = set()
            for p in (lo, hi):
                attempts = []
                orig = series.mzv_limit_bracket
                series.mzv_limit_bracket = lambda *a, **kw: attempts.append(a) or orig(*a, **kw)
                try:
                    series.mzv_limit(k, p)
                finally:
                    series.mzv_limit_bracket = orig
                paths.add(tuple(attempts))
            assert len(paths) == 1, (k, lo, hi)


# ---- wrappers ---------------------------------------------------------------

def _engine_bindings():
    return {(m.__name__, key): value
            for m in tracing._engine_modules() for key, value in vars(m).items()}


def test_install_wraps_every_binding_and_uninstall_restores_them():
    before = _engine_bindings()
    approx_before = {op: numeric.ApproxReal.__dict__[op] for op in tracing.APPROX_OPS}
    originals = {id(getattr(sys.modules[f"mzvfactor.{mod}"], attr))
                 for mod, attr in tracing.SPANS + tracing.LEAVES}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (mod, key), value in _engine_bindings().items():
            assert id(value) not in originals, f"{mod}.{key} still unwrapped"
        assert bijection.mzv_truncated is series.mzv_truncated
        assert bijection.mzv_truncated.__wrapped__ is before[("mzvfactor.series", "mzv_truncated")]
        for mod in (suites, bijection, pi_constants):
            assert mod.pi_oracle is numeric.pi_oracle
            assert hasattr(mod.pi_oracle, "__wrapped__")
        assert hasattr(series.round_to_bits, "__wrapped__")
        for op in tracing.APPROX_OPS:
            assert numeric.ApproxReal.__dict__[op] is not approx_before[op]
    finally:
        tracer.uninstall()
    assert _engine_bindings() == before
    assert bijection.mzv_truncated is before[("mzvfactor.series", "mzv_truncated")]
    assert {op: numeric.ApproxReal.__dict__[op] for op in tracing.APPROX_OPS} == approx_before


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def _traced(argv):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.request_id = 0
        _run(argv + ["--format", "json"])
    finally:
        tracer.uninstall()
    return tracer.metrics(), tracer


def test_trace_counts_the_layers_a_request_touches():
    metrics, tracer = _traced(["compute", "p-eval", "--x=-1/3", "--N", "20"])
    assert metrics["pfunc.p_eval.calls"] == 1
    assert metrics["pfunc.p_eval.terms"] == 20
    assert metrics["numeric.approx.ops"] > 5 * 20
    assert metrics["series.mzv_row.steps"] == 0
    assert metrics["bijection.weight.calls"] == 0
    assert metrics["cli.main.calls"] == 1
    names = {s[1] for s in tracer.spans}
    assert {"cli.main", "pfunc.p_eval", "report.make_record", "report.render"} <= names
    by_id = {s[0]: s for s in tracer.spans}
    p_eval = next(s for s in tracer.spans if s[1] == "pfunc.p_eval")
    assert by_id[p_eval[4]][1] == "cli.main"
    assert all(s[5] == 0 for s in tracer.spans)
    assert 0 <= p_eval[6] <= p_eval[3] - p_eval[2]


def test_trace_of_an_exact_request_skips_approx_arithmetic():
    metrics, _ = _traced(["verify", "bijection-beta", "--M", "6"])
    assert metrics["numeric.approx.ops"] == 0
    assert metrics["bijection.component.calls"] == 6
    assert 0 < metrics["bijection.closure.useful_ratio"] < 1


# ---- output checks ----------------------------------------------------------

def test_reference_pi_agrees_with_the_engine_oracle():
    oracle = numeric.pi_oracle(256)
    assert abs(checks.reference_pi(256) - oracle.value) <= oracle.err + Fraction(1, 1 << 270)


def test_checks_accept_true_values_and_reject_wrong_ones():
    argv = ["compute", "mzv", "--k", "3", "--precision", "96", "--format", "json"]
    stdout = _run(argv)
    assert checks.check(argv, stdout, {}) == []
    record = json.loads(stdout)
    observed = Fraction(record["params"]["observed_exact"]) + Fraction(1, 1 << 90)
    record["params"]["observed_exact"] = f"{observed.numerator}/{observed.denominator}"
    assert checks.check(argv, json.dumps(record) + "\n", {})
    record["status"] = "fail"
    assert any("status fail" in p for p in checks.check(argv, json.dumps(record) + "\n", {}))


def test_checks_compare_p_eval_with_the_decimal_reference():
    argv = ["compute", "p-eval", "--x=-2/3", "--N", "50", "--precision", "80",
            "--format", "json"]
    stdout = _run(argv)
    assert checks.check(argv, stdout, {}) == []
    record = json.loads(stdout)
    record["params"]["observed_exact"] = "3"
    assert checks.check(argv, json.dumps(record) + "\n", {})


def _tamper_last_sum(text, line):
    lines = text.splitlines()
    last = max(i for i, ln in enumerate(lines) if ln.startswith("sum="))
    lines[last] = line
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("argv", [
    ["bijection-dump", "--k", "2", "--bound", "6", "--kind", "alpha"],
    ["bijection-dump", "--k", "2", "--bound", "24", "--kind", "beta", "--m-sweep", "8,16,24"],
])
def test_checks_reread_component_dumps(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = argv + ["--out", "dumps"]
    stdout = _run(argv)
    files = {p.relative_to(tmp_path).as_posix(): p.read_text(encoding="utf-8")
             for p in sorted((tmp_path / "dumps").iterdir())}
    assert checks.check(argv, stdout, files) == []
    dump = stdout.splitlines()[-1].split(": ", 1)[1]
    files[dump] = _tamper_last_sum(files[dump], "sum=1/1")
    assert checks.check(argv, stdout, files)


# ---- spans ------------------------------------------------------------------

def test_write_spans_emits_one_json_line_per_span():
    _, tracer = _traced(["compute", "p-eval", "--x=1/2", "--N", "10"])
    fh = io.StringIO()
    tracer.write_spans(fh, 3)
    lines = fh.getvalue().splitlines()
    assert len(lines) == len(tracer.spans) > 0
    ids = set()
    for line, span in zip(lines, tracer.spans):
        record = json.loads(line)
        assert {"id", "name", "start", "end", "parent", "request"} <= record.keys()
        assert (record["id"], record["name"], record["parent"], record["request"]) == \
            (span[0], span[1], span[4], span[5])
        assert record["pass"] == 3 and record["start"] <= record["end"]
        ids.add(record["id"])
    assert all(json.loads(ln)["parent"] in ids | {None} for ln in lines)


def test_spans_path_inside_the_checkout_is_refused(capsys):
    argv = ["--workload", "p-scan", "--seed", "1", "--seconds", "1", "--trace", "1",
            "--spans", str(run.ROOT / "spans.jsonl")]
    assert run.main(argv) == 2
    assert "inside the checkout" in capsys.readouterr().err
    assert not (run.ROOT / "spans.jsonl").exists()


# ---- BENCHMARK.json ---------------------------------------------------------

def test_benchmark_json_names_what_the_code_measures():
    spec = json.loads(run.SPEC.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    values, _ = run.end_to_end([[0.5] * 20], [[0.5] * 20], [(0.1, 0.1)])
    assert {m["name"] for m in spec["end_to_end"]} <= values.keys()
