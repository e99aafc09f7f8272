"""Output checks for benchmark requests.

A request fails when it exits non-zero, raises, or emits a record whose
status is not `pass`. On top of the engine's own verdicts, computed values
are compared with references the benchmark derives itself (pi by Gauss's
arctangent formula, which the engine does not use; p_N(x) summed in
`decimal`), and component dumps are re-read from disk.
"""

from __future__ import annotations

import json
import math
import re
from decimal import Decimal, localcontext
from fractions import Fraction

DECIMAL_ULP = Fraction(1, 10 ** 45)   # report.DECIMAL_PLACES truncation


def _atan_inv(x: int, one: int) -> int:
    """one * arctan(1/x), each term floored; error under one unit per term."""
    power = one // x
    total = power
    x2 = x * x
    n = 1
    sign = -1
    while power:
        power //= x2
        n += 2
        total += sign * (power // n)
        sign = -sign
    return total


def reference_pi(bits: int) -> Fraction:
    """pi within 2^-(bits+20), from 48 atan(1/18) + 32 atan(1/57) - 20 atan(1/239)."""
    one = 1 << (bits + 40)
    total = (48 * _atan_inv(18, one) + 32 * _atan_inv(57, one)
             - 20 * _atan_inv(239, one))
    return Fraction(total, one)


def reference_p_eval(x: Fraction, n: int) -> Decimal:
    """6 S - 4 x^2 (S^2 - S2) with S = sum 1/(m^2 - x^2), S2 the sum of squares,
    over m <= n, at 90 significant digits."""
    with localcontext() as ctx:
        ctx.prec = 90
        x2 = Decimal(x.numerator) ** 2 / Decimal(x.denominator) ** 2
        s = s2 = Decimal(0)
        for m in range(1, n + 1):
            t = 1 / (Decimal(m * m) - x2)
            s += t
            s2 += t * t
        return 6 * s - 4 * x2 * (s * s - s2)


def _flag(argv: list[str], name: str) -> str:
    for i, a in enumerate(argv):
        if a == name:
            return argv[i + 1]
        if a.startswith(name + "="):
            return a[len(name) + 1:]
    raise KeyError(name)


def _records(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines() if line]


def check(argv: list[str], stdout: str, files: dict[str, str]) -> list[str]:
    """Problems in the output of one request that exited 0; empty if correct."""
    if argv[0] == "bijection-dump":
        return _check_dump(argv, stdout, files)
    try:
        records = _records(stdout)
    except json.JSONDecodeError as exc:
        return [f"unparsable report: {exc}"]
    if not records:
        return ["no records"]
    problems = [f"{r['claim_id']}: status {r['status']}"
                for r in records if r["status"] != "pass"]
    if argv[0] == "compute":
        problems += _check_value(argv, records[0])
    return problems


def _check_value(argv: list[str], record: dict) -> list[str]:
    target = argv[1]
    precision = int(_flag(argv, "--precision"))
    observed = Fraction(record["params"]["observed_exact"])
    if target in ("mzv", "pi-freq"):
        pi = reference_pi(precision + 64)
        if target == "mzv":
            k = int(_flag(argv, "--k"))
            truth = pi ** (2 * k) / math.factorial(2 * k + 1)
        else:
            truth = pi
        # the engine certifies an error of at most 2^-(precision+2)
        if abs(observed - truth) > Fraction(1, 1 << (precision + 2)) + Fraction(1, 1 << (precision + 30)):
            return [f"{target}: value off the reference by more than 2^-{precision + 2}"]
    elif target == "pi-amp":
        pi = reference_pi(precision + 64)
        err = Fraction(record["certified_error"]) + DECIMAL_ULP
        if not observed <= pi <= observed + err:
            return ["pi-amp: Wallis bracket misses the reference pi"]
    elif target == "p-eval":
        x = Fraction(_flag(argv, "--x"))
        ref = reference_p_eval(x, int(_flag(argv, "--N")))
        with localcontext() as ctx:
            ctx.prec = 90
            obs = Decimal(observed.numerator) / Decimal(observed.denominator)
            bound = Decimal(record["certified_error"]) + Decimal(10) ** -44
            if abs(obs - ref) > bound:
                return ["p-eval: value off the reference by more than its certified error"]
    return []


_SUM = re.compile(r"^sum=(-?\d+)/(\d+)$")


def _check_dump(argv: list[str], stdout: str, files: dict[str, str]) -> list[str]:
    kind = _flag(argv, "--kind")
    lines = dict(line.split(": ", 1) for line in stdout.splitlines() if ": " in line)
    path = lines.get("dump")
    if path not in files:
        return [f"dump file {path!r} missing"]
    sums = [Fraction(int(m.group(1)), int(m.group(2)))
            for m in map(_SUM.match, files[path].splitlines()) if m]
    if int(lines.get("components", -1)) != len(sums):
        return ["component count differs from the dump"]
    if kind == "alpha":
        if lines.get("max |weight_sum|") != "0/1" or any(sums):
            return ["an alpha component does not cancel"]
        return []
    sweep = [int(m) for m in _flag(argv, "--m-sweep").split(",")]
    if len(sums) != len(sweep):
        return ["one beta component per truncation expected"]
    if not all(abs(a) > abs(b) for a, b in zip(sums, sums[1:])):
        return ["beta component sums do not shrink as M grows"]
    return []
