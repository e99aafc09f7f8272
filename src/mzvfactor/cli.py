"""Command-line front end.

    mzvfactor compute {mzv,pi-freq,pi-amp,p-eval} [flags]
    mzvfactor verify SUITE [flags]
    mzvfactor bijection-dump --k K --bound B --kind {alpha,beta} [flags]

Exit codes: 0 all pass, 1 verification failure or internal error, 2 usage
error, 3 resource error. Reports are newline-delimited JSON, CSV, or aligned
text, emitted in claim-id order; identical configurations (including --seed)
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import re
import sys
from collections import Counter
from collections.abc import Iterable
from fractions import Fraction

from . import bijection, pfunc, pi_constants, series
from .numeric import DEFAULT_PRECISION, ZERO, ApproxReal, DomainError, ResourceError
from .report import RunConfig, all_passed, make_record, render
from .suites import SUITES, run_suite

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _value_record(claim_id: str, v: ApproxReal, params: dict):
    return make_record(claim_id, v.value, v.value, v.err, ZERO, params=params)


def compute_mzv(config: RunConfig) -> list:
    k, prec = config.k, config.precision
    return [_value_record(f"compute.mzv.k{k}", series.mzv_limit(k, prec)[-1],
                          {"k": k, "precision_bits": prec})]


def compute_pi_freq(config: RunConfig) -> list:
    return [_value_record("compute.pi_freq", pi_constants.pi_freq(config.precision),
                          {"precision_bits": config.precision})]


def compute_pi_amp(config: RunConfig) -> list:
    v, exact_partial = pi_constants.pi_amp(config.N, config.precision)
    params = {"N": config.N}
    if exact_partial is not None:
        params["exact_partial"] = f"{exact_partial.numerator}/{exact_partial.denominator}"
    return [_value_record("compute.pi_amp", v, params)]


def compute_p_eval(config: RunConfig) -> list:
    x, n = config.x, config.N
    return [_value_record(f"compute.p_eval.x{x.numerator}_{x.denominator}",
                          pfunc.p_eval(x, n, config.precision), {"x": str(x), "N": n})]


# each compute target and the default of each optional flag it reads, as in SUITES
COMPUTE = {
    "mzv": (compute_mzv, {"k": 2, "precision": DEFAULT_PRECISION}),
    "pi-freq": (compute_pi_freq, {"precision": DEFAULT_PRECISION}),
    "pi-amp": (compute_pi_amp, {"N": 1000, "precision": DEFAULT_PRECISION}),
    "p-eval": (compute_p_eval, {"x": ZERO, "N": 1000, "precision": DEFAULT_PRECISION}),
}


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def _tolerance(text: str) -> Fraction:
    if (value := _parse_fraction(text)) < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {text}")
    return value


def _parse_sweep(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(s) for s in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"not a comma-separated list of integers: {text!r}") from exc


def _count(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_report_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--precision", type=int)
    p.add_argument("--format", dest="output_format",
                   choices=["json", "csv", "text"], default="text")
    p.add_argument("--out", dest="output_path")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and reused by every
    later one in the process. No optional flag has a default here: each
    entry of COMPUTE, SUITES and DUMP declares the ones it reads."""
    parser = argparse.ArgumentParser(
        prog="mzvfactor",
        description="compute and verify the zeta({2}^k) factorization, the "
                    "sine-type product, and the pi constants it generates")
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="print values with certified errors",
                               allow_abbrev=False)
    p_compute.add_argument("target", choices=list(COMPUTE))
    p_compute.add_argument("--k", type=int)
    p_compute.add_argument("--N", type=int)
    p_compute.add_argument("--x", type=_parse_fraction)
    # argparse takes a token for a value, not a flag, when this matches it;
    # its default matches -9 and -.9 but not a negative rational such as -9/10
    p_compute._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")
    _add_report_flags(p_compute)

    p_verify = sub.add_parser("verify", help="run a registered verification suite",
                              allow_abbrev=False)
    p_verify.add_argument("suite", choices=sorted(SUITES))
    # sizes and counts: below 1 a suite would have nothing to check
    for flag in ("--k", "--N", "--M", "--n-max", "--j-max", "--bound"):
        p_verify.add_argument(flag, type=_count)
    p_verify.add_argument("--tolerance", type=_tolerance)
    p_verify.add_argument("--seed", type=int)
    _add_report_flags(p_verify)

    p_dump = sub.add_parser("bijection-dump", help="enumerate and dump components",
                            allow_abbrev=False)
    p_dump.add_argument("--k", type=int)
    p_dump.add_argument("--bound", type=int)
    p_dump.add_argument("--kind", choices=list(DUMP), default="alpha")
    p_dump.add_argument("--m-sweep", dest="m_sweep", type=_parse_sweep,
                        help="comma-separated beta truncations, e.g. 20,40,80")
    p_dump.add_argument("--out", dest="output_path")

    return parser


def _config_from(args: argparse.Namespace) -> RunConfig:
    return RunConfig(**{f.name: getattr(args, f.name)
                        for f in dataclasses.fields(RunConfig) if hasattr(args, f.name)})


def cmd_records(args: argparse.Namespace) -> int:
    """`compute` and `verify`: emit the records of one entry (a compute
    record always passes)."""
    config = _config_from(args)
    if args.command == "verify":
        records = run_suite(args.suite, config)
    else:
        compute, defaults = COMPUTE[args.target]
        records = compute(config.resolve(f"compute {args.target}", defaults))
    text = render(records, config.output_format)
    if config.output_path:
        with open(config.output_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_PASS if all_passed(records) else EXIT_FAIL


def _blocks(components) -> Iterable[str]:
    return (bijection.format_component(c) + "\n" for c in components)


def dump_alpha(config: RunConfig) -> tuple[list, dict[str, Iterable[str]]]:
    """The alpha components with entries <= bound of two or more vertices, and
    the residual vertices, the singleton components, in a file of their own."""
    k, bound = config.k, config.bound
    components, singles = [], []
    for c in bijection.alpha_walk(k, bound):
        (components if c.size() > 1 else singles).append(c)
    return components, {f"alpha_k{k}_b{bound}.components.txt": _blocks(components),
                        f"alpha_k{k}_b{bound}.residual_singletons.txt": _blocks(singles)}


def dump_beta(config: RunConfig) -> tuple[list, dict[str, Iterable[str]]]:
    """The beta component of one seed vertex at each truncation of the sweep."""
    k, sweep = config.k, config.m_sweep or (config.bound,)
    seed_vertex = bijection.V1((), 1) if k == 2 else bijection.V1((1,), 2)
    components = [bijection.component(seed_vertex, "beta", k, M=m) for m in sweep]
    return components, {f"beta_k{k}.components.txt": (
        f"# M={m}\n{bijection.format_component(c)}\n" for m, c in zip(sweep, components))}


# each dump kind and the default of each optional flag it reads; an absent
# --m-sweep is the one truncation --bound. A kind returns its components and
# the lines of each file it writes, its dump first
DUMP = {
    "alpha": (dump_alpha, {"k": 2, "bound": 10}),
    "beta": (dump_beta, {"k": 2, "bound": 10, "m_sweep": None}),
}


def cmd_bijection_dump(args: argparse.Namespace) -> int:
    dump, defaults = DUMP[args.kind]
    config = _config_from(args).resolve(f"bijection-dump --kind {args.kind}", defaults)
    sweep = config.m_sweep or (config.bound,)
    # alpha dumps are limited by bijection.VERTEX_CEILING instead
    if not 2 <= config.k <= 5 or (args.kind == "beta" and max(config.bound, *sweep) > 60):
        raise DomainError("bijection-dump needs k in 2..5, and a bound and "
                          "--m-sweep values <= 60 for --kind beta")
    components, files = dump(config)
    # nothing is made before the engine has checked k, the bound and the size
    out_dir = config.output_path or "."
    os.makedirs(out_dir, exist_ok=True)
    for name, lines in files.items():
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            fh.writelines(lines)
    histogram = sorted(Counter(c.size() for c in components).items())
    largest = max((abs(c.weight_sum) for c in components), default=ZERO)
    sys.stdout.write(f"components: {len(components)}\n"
                     f"size histogram: {' '.join(f'{s}x{n}' for s, n in histogram)}\n"
                     f"max |weight_sum|: {largest.numerator}/{largest.denominator}\n"
                     f"dump: {os.path.join(out_dir, next(iter(files)))}\n")
    return EXIT_PASS


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "bijection-dump":
            return cmd_bijection_dump(args)
        return cmd_records(args)
    except ResourceError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (DomainError, KeyError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, bijection.StructuralFailure) as exc:
        # any other ValueError, like a StructuralFailure, is a broken
        # invariant inside the engine
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
