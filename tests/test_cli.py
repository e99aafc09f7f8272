"""CLI contract: subcommands, formats, determinism, and exit codes."""

import contextlib
import hashlib
import io
import json
import math
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from mzvfactor import bijection, cli, pfunc, pi_constants, product, series, suites
from mzvfactor.numeric import DomainError, ResourceError, frac_to_decimal
from mzvfactor.report import bool_record


def _run(*args: str, flags: tuple[str, ...] = ()) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *flags, "-m", "mzvfactor.cli", *args],
                          capture_output=True, text=True, check=False)


def test_compute_mzv_json():
    proc = _run("compute", "mzv", "--k", "2", "--precision", "64", "--format", "json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout.strip())
    assert payload["claim_id"] == "compute.mzv.k2"
    assert payload["observed"].startswith("0.811742425")
    assert payload["status"] == "pass"


def test_compute_pi_amp_trivial():
    proc = _run("compute", "pi-amp", "--N", "0", "--format", "json")
    payload = json.loads(proc.stdout.strip())
    assert payload["observed"].startswith("2.0")
    assert payload["params"]["exact_partial"] == "2/1"


def test_compute_pi_amp_past_the_exact_partial_limit():
    # the exact partial has more than 4300 digits here; it is left out
    proc = _run("compute", "pi-amp", "--N", "5000", "--format", "json")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout.strip())
    assert payload["status"] == "pass"
    assert "exact_partial" not in payload["params"]


# sha256 of `compute pi-amp --N N --format json` from the dyadic-ball
# ApproxReal (commit 0db998c): the bracket [2 lo - hi, hi] reports the same
# midpoint lo and half-width hi - lo
PI_AMP_SHA256 = {
    1000: "291f2b9920573d916a75fc18d2129524150e4480e8d2ceae85fb6cad646453a6",
    20000: "35cc8b622b3235baa95131f11ff979c096d30853c000edf903adefbb3dc7c18d",
    10 ** 6: "90819a88ef14fe1521be260302587a16b5af1b74ffd0dd681fb3fefa76a0403d",
}


def _main_bytes(*argv: str) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    return out.getvalue().encode()


def test_compute_pi_amp_reports_the_bytes_of_the_ball_it_replaced():
    for N, digest in PI_AMP_SHA256.items():
        out = _main_bytes("compute", "pi-amp", "--N", str(N), "--format", "json")
        assert hashlib.sha256(out).hexdigest() == digest, N
    # at N = 0 the ball rounded its radius 2 + 2^-136 up to 32 significant
    # bits, 2 + 2^-31; the bracket reports the Wallis width itself
    payload = json.loads(_main_bytes("compute", "pi-amp", "--N", "0", "--format", "json"))
    assert Fraction(payload["params"]["observed_exact"]) == 2
    assert payload["certified_error"] == frac_to_decimal(2 + Fraction(1, 2 ** 136), 45)


def test_compute_p_eval_matches_six_zeta():
    proc = _run("compute", "p-eval", "--x", "0", "--N", "200", "--format", "json")
    payload = json.loads(proc.stdout.strip())
    assert payload["observed"].startswith("9.8")


def test_verify_exit_zero_and_determinism():
    # byte-identical reports, also for the one suite that reads --seed
    for argv in (("verify", "product-structure", "--N", "40", "--bound", "81"),
                 ("verify", "p-constant", "--n-max", "5", "--j-max", "2", "--seed", "5")):
        a = _run(*argv, "--format", "json")
        b = _run(*argv, "--format", "json")
        assert a.returncode == 0, argv
        assert a.stdout == b.stdout, argv


def test_verify_csv_has_header():
    proc = _run("verify", "factorization", "--k", "2", "--format", "csv")
    assert proc.returncode == 0
    head = proc.stdout.splitlines()[0]
    assert head.split(",")[:3] == ["claim_id", "params", "observed"]


def test_verify_writes_report_file(tmp_path):
    out = tmp_path / "report.jsonl"
    proc = _run("verify", "factorization", "--k", "1", "--format", "json",
                "--out", str(out))
    assert proc.returncode == 0
    assert proc.stdout == ""
    lines = out.read_text().strip().splitlines()
    assert lines and all(json.loads(line)["status"] == "pass" for line in lines)


def test_verify_failure_exit_code():
    # an impossible tolerance forces a clean failure, not a crash
    proc = _run("verify", "basel", "--k", "1", "--tolerance", "1/10" + "0" * 60)
    assert proc.returncode == 1
    assert "FAIL" in proc.stdout


def test_usage_error_exit_code():
    proc = _run("verify", "definitely-not-a-suite")
    assert proc.returncode == 2


def test_unknown_or_abbreviated_flag_is_a_usage_error():
    # there is no --j flag, and flags are not abbreviated (--j for --j-max)
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "basel", "--k", "1", "--j", "3"])
    assert exc.value.code == 2


def test_report_is_the_same_under_python_O():
    args = ("verify", "product-structure", "--N", "20", "--bound", "41", "--format", "json")
    plain = _run(*args)
    optimized = _run(*args, flags=("-O",))
    assert plain.returncode == optimized.returncode == 0
    assert plain.stdout == optimized.stdout


def test_broken_witness_is_a_failed_record(monkeypatch, tmp_path):
    # an n-dependent shift of H(n) breaks the cancellation (a constant one cancels out)
    real = pfunc.harmonic
    monkeypatch.setattr(pfunc, "harmonic", lambda n: real(n) + Fraction(n, 10 ** 9))
    out = tmp_path / "report.jsonl"
    assert cli.main(["verify", "p-constant", "--n-max", "20", "--j-max", "2", "--N", "20",
                     "--format", "json", "--out", str(out)]) == 1
    status = {r["claim_id"]: r["status"]
              for r in map(json.loads, out.read_text().splitlines())}
    assert status["p.witness.j1"] == status["p.witness.j2"] == "fail"


def test_broken_periodicity_is_a_failed_record(monkeypatch, tmp_path):
    # F_N scaled by 1 + 10^-9 beyond x = 1 breaks F_N(x+1)/F_N(x) = -(N+1+x)/(N-x)
    real = product.eval_F
    monkeypatch.setattr(product, "eval_F", lambda x, N: real(x, N) * (
        1 + Fraction(1, 10 ** 9) if x > 1 else 1))
    out = tmp_path / "report.jsonl"
    assert cli.main(["verify", "product-structure", "--N", "20", "--bound", "41",
                     "--format", "json", "--out", str(out)]) == 1
    status = {r["claim_id"]: r["status"]
              for r in map(json.loads, out.read_text().splitlines())}
    assert status["product.periodicity_sign"] == "fail"


def test_broken_rise_fails_monotonicity(monkeypatch, tmp_path):
    real = product.eval_F_shifted
    monkeypatch.setattr(product, "eval_F_shifted", lambda x, N: real(x, N) / (
        2 if x == Fraction(1, 4) else 1))
    out = tmp_path / "report.jsonl"
    assert cli.main(["verify", "product-structure", "--N", "20", "--bound", "41",
                     "--format", "json", "--out", str(out)]) == 1
    [record] = [r for r in map(json.loads, out.read_text().splitlines())
                if r["claim_id"] == "product.monotonicity"]
    assert record["status"] == "fail"
    assert record["params"]["first_violation"] == str((Fraction(9, 40), Fraction(1, 4)))


def _exit_code(argv: list[str]) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:   # argparse rejects the command line
        return exc.code


def test_negative_rational_after_x_is_its_value(capsys):
    reports = []
    for x_flag in (["--x", "-9/10"], ["--x=-9/10"]):
        assert cli.main(["compute", "p-eval", *x_flag, "--N", "50", "--format", "json"]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["params"]["x"] == "-9/10"
    # a flag in the value's place is still a missing value
    assert _exit_code(["compute", "p-eval", "--x", "--N", "5"]) == 2


def test_p_eval_exactly_1_over_n_from_the_pole_exits_0_and_nearer_exits_2(capsys):
    # the distance is compared exactly, not on x rounded into a ball
    for x, n in (("2/3", 3), ("4/5", 5), ("-9/10", 10), ("99/100", 100)):
        assert cli.main(["compute", "p-eval", "--x", x, "--N", str(n)]) == 0, x
        assert cli.main(["compute", "p-eval", "--x", x, "--N", str(n - 1)]) == 2, x
        assert "of the pole" in capsys.readouterr().err, x


def test_run_that_checks_nothing_is_a_usage_error(capsys):
    # a count below 1 is refused, never swapped for the default, and a
    # suite that returns no record does not pass
    for argv in (["verify", "basel", "--k", "-1"],
                 ["verify", "factorization", "--k", "0"],
                 ["verify", "product-structure", "--N", "0"],
                 ["verify", "bijection-alpha", "--k", "1"],
                 ["verify", "bijection-alpha", "--k", "2", "--bound", "0"],
                 ["verify", "bijection-beta", "--k", "4"],
                 ["verify", "bijection-beta", "--M", "0"]):
        assert _exit_code(argv) == 2, argv
    assert capsys.readouterr().out == ""


def test_negative_k_of_a_limit_is_a_usage_error(capsys):
    assert _exit_code(["compute", "mzv", "--k", "-1"]) == 2
    assert capsys.readouterr().err.startswith("usage error: k must be nonnegative")


def test_each_subcommand_accepts_only_its_flags():
    for argv in (["compute", "mzv", "--seed", "3"],
                 ["bijection-dump", "--k", "2", "--format", "json"],
                 ["verify", "basel", "--x", "1/2"]):
        assert _exit_code(argv) == 2, argv


def _flag(field: str) -> str:
    """The flag that sets a RunConfig field."""
    return f"--{field.replace('_', '-')}"


# a value of each optional flag of verify, under the RunConfig field it sets
_COUNT_FLAGS = {"k": "3", "N": "20", "M": "10", "n_max": "5", "j_max": "2", "bound": "10",
                "tolerance": "1/1000", "precision": "64", "seed": "3"}


def test_verify_refuses_a_flag_its_suite_does_not_read(monkeypatch, capsys):
    # each unread flag exits 2 before the suite runs; a read one reaches it
    ran = []
    for name, (suite, reads) in list(suites.SUITES.items()):
        monkeypatch.setitem(suites.SUITES, name, (lambda config, name=name: ran.append(name) or
                                                  [bool_record("ok", True)], reads))
    for name, (_, reads) in suites.SUITES.items():
        for flag, value in _COUNT_FLAGS.items():
            argv = ["verify", name, _flag(flag), value]
            ran.clear()
            if flag in reads:
                assert cli.main(argv) == 0, argv
                assert ran == [name], argv
            else:
                assert cli.main(argv) == 2, argv
                assert ran == [], argv
                assert f"does not read {_flag(flag)}" in capsys.readouterr().err


def test_which_suites_read_precision_and_seed(capsys):
    def readers(flag):
        return {name for name, (_, reads) in suites.SUITES.items() if flag in reads}
    assert readers("precision") == {"basel", "factorization", "pi-equality"}
    assert readers("seed") == {"p-constant"}
    assert cli.main(["verify", "residuals", "--precision", "64"]) == 2
    assert capsys.readouterr().err == "usage error: suite residuals does not read --precision\n"


# each command's registry: its entries, each a function and the default of
# every optional flag it reads, and the argv that selects an entry
_REGISTRIES = (("verify", suites.SUITES, lambda name: ["verify", name]),
               ("compute", cli.COMPUTE, lambda name: ["compute", name]),
               ("bijection-dump", cli.DUMP, lambda name: ["bijection-dump", "--kind", name]))


@pytest.mark.parametrize("precision, code", [(31, 2), (32, 0), (16384, 0), (16385, 3)])
@pytest.mark.parametrize("command, registry, name", [
    pytest.param(command, registry, name, id=f"{command}-{name}")
    for command, registry, _ in _REGISTRIES
    for name, (_, defaults) in registry.items() if "precision" in defaults])
def test_every_entry_that_reads_precision_takes_32_to_16384_bits(
        command, registry, name, precision, code, monkeypatch, capsys):
    # one rule, checked as the request is resolved: outside the range the
    # entry never runs and nothing is written
    ran = []
    monkeypatch.setitem(registry, name, (lambda config: ran.append(config.precision) or
                                         [bool_record("ok", True)], registry[name][1]))
    start = time.process_time()
    assert cli.main([command, name, "--precision", str(precision)]) == code
    assert time.process_time() - start < 1
    out, err = capsys.readouterr()
    assert ran == ([precision] if code == 0 else [])
    assert (out == "") == (code != 0)
    if code:
        assert err.startswith("usage error: precision must be at least 32" if code == 2
                              else "resource error: precision 16385 exceeds ceiling 16384")
# small values of the size flags, for the flags a request does not test
_SMALL = {"k": 2, "N": 20, "M": 5, "n_max": 5, "j_max": 2, "bound": 9, "precision": 64}


def _text(value) -> str:
    """A default as the README writes it and the parser reads it."""
    digits = str(value.denominator) if isinstance(value, Fraction) else ""
    if value.numerator == 1 and digits.startswith("10") and set(digits) == {"1", "0"}:
        return f"1e-{len(digits) - 1}"
    return str(value)


def _default_requests():
    """(argv without the flag, the flag and its default) for every entry of
    every command and each flag it reads with a default; every other size
    flag the entry reads is set small"""
    out = []
    for command, registry, select in _REGISTRIES:
        for name, (_, defaults) in registry.items():
            for field, default in defaults.items():
                if default is None:
                    continue
                argv = select(name)
                for other in defaults:
                    if other != field and other in _SMALL:
                        argv += [_flag(other), str(_SMALL[other])]
                out.append(pytest.param(argv, [_flag(field), _text(default)],
                                        id=f"{name}{_flag(field)}"))
    return out


@pytest.mark.parametrize("argv, explicit", _default_requests())
def test_an_absent_flag_is_its_declared_default(argv, explicit, tmp_path, monkeypatch, capsys):
    # the report bytes, and a dump's files, of a request without the flag
    # are those with its declared default
    monkeypatch.chdir(tmp_path)
    outputs = []
    for args in (argv, argv + explicit):
        code = cli.main(args + (["--out", "dump"] if args[0] == "bijection-dump"
                                else ["--format", "json"]))
        files = {path.name: path.read_text() for path in tmp_path.glob("dump/*")}
        for path in tmp_path.glob("dump/*"):
            path.unlink()
        outputs.append((code, capsys.readouterr().out, files))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] in (0, 1) and outputs[0][1]


def _readme_table(command: str) -> str:
    """The README's table of what each entry of `command` reads: every flag
    with its default, * where the default depends on the request."""
    _, registry, _ = next(r for r in _REGISTRIES if r[0] == command)
    head = {"verify": "suite", "compute": "target", "bijection-dump": "kind"}[command]
    rows = [f"| {head} | flags read, with their defaults |", "|---|---|"]
    for name, (_, defaults) in registry.items():
        flags = " ".join(f"`{_flag(field)} {'*' if default is None else _text(default)}`"
                         for field, default in defaults.items())
        rows.append(f"| {name} | {flags} |")
    return "\n".join(rows) + "\n"


@pytest.mark.parametrize("command", ["verify", "compute", "bijection-dump"])
def test_readme_states_the_flags_and_defaults_of_each_registry_entry(command):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    assert _readme_table(command) in readme


@pytest.mark.parametrize("argv", [
    ["verify", "basel", "--k", "1", "--tolerance=-1"],
    ["verify", "basel", "--k", "1", "--tolerance", "-1"],
    ["verify", "pi-equality", "--precision", "64", "--tolerance=-1/2"],
    ["verify", "pi-equality", "--precision", "64", "--tolerance", "-1/2"]])
def test_a_negative_tolerance_is_a_usage_error(argv, capsys):
    # refused by the parser, before any suite reports a failure
    assert _exit_code(argv) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("suite", ["basel", "factorization"])
@pytest.mark.parametrize("precision", [32, 48, 64, 127])
@pytest.mark.parametrize("k", [1, 3, 8, 64])
def test_a_limit_suite_passes_at_its_default_tolerance_below_128_bits(suite, precision, k):
    assert cli.main(["verify", suite, "--k", str(k), "--precision", str(precision)]) == 0


@pytest.mark.parametrize("argv", [["verify", "basel", "--k", "3"],
                                  ["verify", "factorization", "--k", "3"],
                                  ["verify", "pi-equality"]])
@pytest.mark.parametrize("precision, tolerance",
                         [(32, "1e-8"), (127, "1e-8"), (128, "1e-20"), (256, "1e-20")])
def test_the_limit_suites_default_tolerance_is_1e_20_from_128_bits_and_1e_8_below(
        argv, precision, tolerance, capsys):
    argv = argv + ["--precision", str(precision), "--format", "json"]
    outputs = []
    for args in (argv, argv + ["--tolerance", tolerance]):
        outputs.append((cli.main(args), capsys.readouterr().out))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0


def test_an_unread_flag_stops_a_long_limit_suite_at_once(capsys):
    start = time.process_time()
    assert cli.main(["verify", "basel", "--k", "24", "--precision", "16384",
                     "--n-max", "1"]) == 2
    assert time.process_time() - start < 1
    assert capsys.readouterr().err == "usage error: suite basel does not read --n-max\n"


def _raise(exc):
    def engine(*args, **kwargs):
        raise exc
    return engine


# the kernel behind each compute target and each dump kind
_KERNELS = {"mzv": (series, "mzv_limit"), "pi-freq": (pi_constants, "pi_freq"),
            "pi-amp": (pi_constants, "pi_amp"), "p-eval": (pfunc, "p_eval"),
            "alpha": (bijection, "alpha_walk"), "beta": (bijection, "component")}
# the flags each of them reads, as the README's compute table states
_READS = {"mzv": {"k"}, "pi-freq": set(), "pi-amp": {"N"}, "p-eval": {"x", "N"},
          "alpha": set(), "beta": {"m_sweep"}}
_COMPUTE_FLAGS = {"k": "3", "N": "300", "x": "1/2"}


def _flag_requests():
    """(argv, flag, kernel key, whether the command reads the flag) for every
    compute target with each of --k --N --x, and each dump kind with a sweep"""
    out = [(["compute", target, f"--{flag}", value], f"--{flag}", target, flag in _READS[target])
           for target in ("mzv", "pi-freq", "pi-amp", "p-eval")
           for flag, value in _COMPUTE_FLAGS.items()]
    out += [(["bijection-dump", "--k", "2", "--bound", "6", "--kind", kind, "--m-sweep", "3,4"],
             "--m-sweep", kind, "m_sweep" in _READS[kind]) for kind in ("alpha", "beta")]
    return [pytest.param(*case, id=f"{case[2]}{case[1]}") for case in out]


@pytest.mark.parametrize("argv, flag, key, read", _flag_requests())
def test_a_flag_a_command_does_not_read_exits_2_before_any_work_and_a_read_one_runs(
        argv, flag, key, read, monkeypatch, tmp_path, capsys):
    # a kernel that runs exits 3: a read flag reaches it, an unread one
    # stops the request first and writes nothing
    for owner, name in _KERNELS.values():
        monkeypatch.setattr(owner, name, _raise(ResourceError(f"{name} ran")))
    out = tmp_path / "out"
    code, err = cli.main([*argv, "--out", str(out)]), capsys.readouterr().err
    if read:
        assert code == 3 and err.endswith(f"{_KERNELS[key][1]} ran\n"), err
    else:
        assert code == 2 and err.startswith("usage error: ") and f"does not read {flag}" in err, err
        assert not out.exists()


def test_domain_error_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setattr(pfunc, "p_eval", _raise(DomainError("x outside the domain")))
    assert cli.main(["compute", "p-eval", "--x", "1/2", "--N", "20"]) == 2
    assert capsys.readouterr().err.startswith("usage error: x outside the domain")


def test_internal_value_error_is_not_a_usage_error(monkeypatch, capsys):
    monkeypatch.setattr(pfunc, "p_eval", _raise(ValueError("polynomial division is not exact")))
    assert cli.main(["compute", "p-eval", "--x", "1/2", "--N", "20"]) == 1
    assert capsys.readouterr().err.startswith("internal error: polynomial division")


def test_a_missed_plan_is_an_internal_error_not_a_retry(monkeypatch, capsys):
    # a width bound that admits every depth plans (256, 6) for zeta({2}^2)
    # and for the zeta(2) of pi-freq; the bracket there misses 200 bits, and
    # nothing is tried after it
    attempts = []
    real_bracket = series.mzv_limit_bracket
    monkeypatch.setattr(series, "width_bound", lambda k, *args: [0] * (k + 1))
    monkeypatch.setattr(series, "_floor_terms", lambda *args: (0, 1))
    monkeypatch.setattr(series, "mzv_limit_bracket",
                        lambda *a, **kw: attempts.append(a[1:3]) or real_bracket(*a, **kw))
    assert cli.main(["compute", "mzv", "--k", "2", "--precision", "200"]) == 1
    assert capsys.readouterr().err.startswith("internal error: zeta({2}^2): the planned")
    assert cli.main(["compute", "pi-freq", "--precision", "200"]) == 1
    assert capsys.readouterr().err.startswith("internal error: zeta({2}^1): the planned")
    assert attempts == [(256, 6), (256, 6)]


def test_broken_alpha_closure_is_an_internal_error_without_traceback(tmp_path):
    script = ("import sys; from mzvfactor import bijection, cli; "
              "bijection.ALPHA_SAFETY_BOUND = 1; sys.exit(cli.main(sys.argv[1:]))")
    proc = subprocess.run(
        [sys.executable, "-c", script, "bijection-dump", "--k", "3", "--bound", "4",
         "--kind", "alpha", "--out", str(tmp_path)],
        capture_output=True, text=True, check=False)
    assert proc.returncode == 1
    assert proc.stderr.startswith("internal error: alpha closure of")
    assert "Traceback" not in proc.stderr


def test_malformed_m_sweep_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["bijection-dump", "--k", "2", "--kind", "beta", "--m-sweep", "3,x"])
    assert exc.value.code == 2
    assert "not a comma-separated list of integers" in capsys.readouterr().err


def test_resource_error_exit_code():
    proc = _run("compute", "mzv", "--precision", "999999")
    assert proc.returncode == 3
    assert "resource" in proc.stderr.lower()


@pytest.mark.parametrize("argv", [["compute", "mzv", "--k", "8", "--precision", "16385"],
                                  ["compute", "pi-freq", "--precision", "16385"]])
def test_limit_past_its_reach_exits_3_at_once(argv):
    start = time.process_time()
    assert cli.main(argv) == 3
    assert time.process_time() - start < 2


@pytest.mark.parametrize("argv", [["verify", "residuals", "--k", "5"],
                                  ["verify", "bijection-alpha", "--k", "6"],
                                  ["verify", "product-structure", "--N", "5000"]])
def test_oversized_enumeration_exits_3_before_any_work(argv, capsys):
    start = time.process_time()
    assert cli.main(argv) == 3
    assert time.process_time() - start < 2
    assert "exceeds ceiling" in capsys.readouterr().err


@pytest.mark.parametrize("argv, owner, work, message", [
    (["verify", "product-structure", "--N", "1500", "--bound", "2"], product, "eval_F",
     "grid_size must be at least 3"),
    (["verify", "p-constant", "--N", "9"], pfunc, "p_coefficient_witness",
     "p-constant needs N >= 10, got 9")])
def test_a_size_the_suite_cannot_take_exits_2_before_any_work(
        argv, owner, work, message, monkeypatch, capsys):
    entered = []

    def first_work(*args):
        entered.append(args)
        raise ValueError("the suite's first work")

    monkeypatch.setattr(owner, work, first_work)
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert entered == []
    # one more grid point or one more N reaches the work
    argv = argv[:-1] + [str(int(argv[-1]) + 1)]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == "internal error: the suite's first work\n"
    assert len(entered) == 1


def _first_refused_residual_n(k: int) -> int:
    n = k
    while not _residual_refused(k, n):
        n += 1
    return n


def _residual_refused(k: int, n: int) -> bool:
    try:
        for kind in ("alpha", "beta"):
            bijection.require_residual_size(kind, k, n)
    except ResourceError:
        return True
    return False


def test_residual_suite_refuses_before_running_any_k(capsys):
    # the default ks are 2, 3, 4; only k = 4 is over the ceiling at this N
    n = _first_refused_residual_n(4)
    assert not _residual_refused(2, n) and not _residual_refused(3, n)
    start = time.process_time()
    assert cli.main(["verify", "residuals", "--N", str(n)]) == 3
    assert time.process_time() - start < 2
    assert capsys.readouterr().out == ""


def test_beta_suite_refuses_before_building_any_closure(capsys):
    # k2.empty at bound M has M^2 vertices: the sweep (M, 2M) fits its
    # first closure and not its second; a k = 3 star has about M
    m = math.isqrt(bijection.VERTEX_CEILING)
    for argv in (["verify", "bijection-beta", "--M", str(m)],
                 ["verify", "bijection-beta", "--k", "3", "--M", str(bijection.VERTEX_CEILING)]):
        start = time.process_time()
        assert cli.main(argv) == 3, argv
        assert time.process_time() - start < 2
    assert "exceeds ceiling" in capsys.readouterr().err


def test_bijection_dump_alpha(tmp_path):
    proc = _run("bijection-dump", "--k", "2", "--bound", "6", "--kind", "alpha",
                "--out", str(tmp_path))
    assert proc.returncode == 0
    dump = (tmp_path / "alpha_k2_b6.components.txt").read_text()
    blocks = [b for b in dump.strip().split("\n\n") if b]
    assert blocks, "expected at least one component"
    for block in blocks:
        assert block.splitlines()[-1] == "sum=0/1"
    singles = (tmp_path / "alpha_k2_b6.residual_singletons.txt").read_text()
    assert "sum=" in singles


@pytest.mark.parametrize("argv, code", [
    (["--bound", "-3"], 2),
    # k = 2 has more than bound^2 vertices, here past VERTEX_CEILING
    (["--k", "2", "--bound", str(math.isqrt(bijection.VERTEX_CEILING) + 1)], 3)])
def test_a_refused_bijection_dump_leaves_no_directory(argv, code, tmp_path, capsys):
    # the engine checks k, the bound and the size before anything is made
    out = tmp_path / "newdir"
    start = time.process_time()
    assert cli.main(["bijection-dump", *argv, "--kind", "alpha", "--out", str(out)]) == code
    assert time.process_time() - start < 2
    assert capsys.readouterr().out == ""
    assert not out.exists()


def test_bijection_dump_beta_sweep(tmp_path):
    proc = _run("bijection-dump", "--k", "2", "--bound", "10", "--kind", "beta",
                "--m-sweep", "10,20,40", "--out", str(tmp_path))
    assert proc.returncode == 0
    assert "components: 3" in proc.stdout
    text = (tmp_path / "beta_k2.components.txt").read_text()
    assert "# M=10" in text and "# M=40" in text


def test_one_parser_serves_a_mixed_sequence_like_fresh_processes(tmp_path, capsys):
    # the parser is built once per process; a request that exits 2 leaves
    # nothing behind for the next one
    assert cli.build_parser() is cli.build_parser()
    sequence = (["compute", "p-eval", "--x", "-9/10", "--N", "600"],
                ["verify", "residuals", "--k", "2", "--N", "12", "--format", "json"],
                ["verify", "basel", "--k", "1", "--j", "3"],
                ["bijection-dump", "--k", "2", "--bound", "6", "--kind", "alpha",
                 "--out", str(tmp_path)],
                ["compute", "mzv", "--k", "3", "--precision", "64"])
    in_process = []
    for argv in sequence:
        code = _exit_code(argv)
        in_process.append((code, capsys.readouterr().out.encode()))
    fresh = [subprocess.run([sys.executable, "-m", "mzvfactor.cli", *argv],
                            capture_output=True, check=False)
             for argv in sequence]
    assert in_process == [(proc.returncode, proc.stdout) for proc in fresh]
    assert [(code, bool(out)) for code, out in in_process] == [
        (0, True), (0, True), (2, False), (0, True), (0, True)]


def test_dump_bound_guard():
    proc = _run("bijection-dump", "--k", "9", "--bound", "10")
    assert proc.returncode == 2
    proc = _run("bijection-dump", "--k", "2", "--bound", "61", "--kind", "beta")
    assert proc.returncode == 2
    # every sweep value is held to the beta cap, not only the bound
    assert _exit_code(["bijection-dump", "--k", "2", "--bound", "10", "--kind", "beta",
                       "--m-sweep", "10,400"]) == 2


def test_alpha_dump_takes_its_singletons_from_the_one_walk(tmp_path, monkeypatch):
    # one component call per component of two or more vertices and none per
    # singleton, and the singleton file holds the components of the
    # residual vertices, as a second pass would find them
    real = bijection.component
    calls = []
    monkeypatch.setattr(bijection, "component",
                        lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs))
    for k, bound in ((2, 9), (3, 7), (4, 5)):
        calls.clear()
        assert cli.main(["bijection-dump", "--k", str(k), "--bound", str(bound),
                         "--kind", "alpha", "--out", str(tmp_path)]) == 0
        comps = (tmp_path / f"alpha_k{k}_b{bound}.components.txt").read_text()
        singles = (tmp_path / f"alpha_k{k}_b{bound}.residual_singletons.txt").read_text()
        assert len(calls) == comps.count("sum=")
        assert all(real(*args).size() > 1 for args in calls)
        residual = [bijection.decode(c) for c in bijection.iter_vertices(k, bound)
                    if bijection.is_alpha_residual(c, k)]
        assert singles == "".join(bijection.format_component(real(v, "alpha", k)) + "\n"
                                  for v in residual)


def test_alpha_dump_is_limited_by_its_vertex_count(tmp_path, capsys):
    assert cli.main(["bijection-dump", "--k", "2", "--bound", "70", "--kind", "alpha",
                     "--out", str(tmp_path)]) == 0
    assert (tmp_path / "alpha_k2_b70.components.txt").exists()
    assert cli.main(["bijection-dump", "--k", "5", "--bound", "30", "--kind", "alpha",
                     "--out", str(tmp_path)]) == 3
    assert "exceeds ceiling" in capsys.readouterr().err
