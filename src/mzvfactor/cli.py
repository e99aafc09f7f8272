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
from fractions import Fraction

from . import bijection, pfunc, pi_constants, series
from .numeric import DEFAULT_PRECISION, DomainError, ResourceError
from .report import RunConfig, all_passed, make_record, render
from .suites import SUITES, refuse_unread, run_suite

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

# the optional flags (those with no default) each compute target and each
# dump kind reads; any other one given is a usage error
COMPUTE_READS = {"mzv": {"k"}, "pi-freq": set(), "pi-amp": {"N"}, "p-eval": {"x", "N"}}
DUMP_READS = {"alpha": set(), "beta": {"m_sweep"}}


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


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
    p.add_argument("--precision", dest="precision_bits", type=int)
    p.add_argument("--format", dest="output_format",
                   choices=["json", "csv", "text"], default="text")
    p.add_argument("--out", dest="output_path")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and reused by every
    later one in the process."""
    parser = argparse.ArgumentParser(
        prog="mzvfactor",
        description="compute and verify the zeta({2}^k) factorization, the "
                    "sine-type product, and the pi constants it generates")
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="print values with certified errors",
                               allow_abbrev=False)
    p_compute.add_argument("target", choices=["mzv", "pi-freq", "pi-amp", "p-eval"])
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
    p_verify.add_argument("--tolerance", type=_parse_fraction)
    # each suite resolves an absent --precision or --seed, or refuses it
    p_verify.add_argument("--seed", type=int)
    _add_report_flags(p_verify)

    p_dump = sub.add_parser("bijection-dump", help="enumerate and dump components",
                            allow_abbrev=False)
    p_dump.add_argument("--k", type=int, default=2)
    p_dump.add_argument("--bound", type=int, default=10)
    p_dump.add_argument("--kind", choices=["alpha", "beta"], default="alpha")
    p_dump.add_argument("--m-sweep", dest="m_sweep", type=_parse_sweep,
                        help="comma-separated beta truncations, e.g. 20,40,80")
    p_dump.add_argument("--out", dest="output_path")

    return parser


def _config_from(args: argparse.Namespace) -> RunConfig:
    return RunConfig(**{f.name: getattr(args, f.name)
                        for f in dataclasses.fields(RunConfig) if hasattr(args, f.name)})


def _emit(records, config: RunConfig) -> None:
    text = render(records, config.output_format)
    if config.output_path:
        with open(config.output_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_compute(args: argparse.Namespace) -> int:
    refuse_unread(f"compute {args.target}", {flag: getattr(args, flag) for flag in ("k", "N", "x")},
                  COMPUTE_READS[args.target])
    config = _config_from(args)
    prec = DEFAULT_PRECISION if config.precision_bits is None else config.precision_bits
    records = []
    if args.target == "mzv":
        k = config.k if config.k is not None else 2
        v = series.mzv_limit(k, prec)[-1]
        records.append(make_record(
            f"compute.mzv.k{k}", v.value, v.value, v.err, Fraction(0),
            params={"k": k, "precision_bits": prec}))
    elif args.target == "pi-freq":
        est = pi_constants.pi_freq(prec)
        records.append(make_record(
            "compute.pi_freq", est.value.value, est.value.value, est.value.err,
            Fraction(0), params={"precision_bits": prec}))
    elif args.target == "pi-amp":
        n = config.N if config.N is not None else 1000
        est = pi_constants.pi_amp(n, prec)
        params = dict(est.truncation)
        if est.exact_partial is not None:
            params["exact_partial"] = (f"{est.exact_partial.numerator}"
                                       f"/{est.exact_partial.denominator}")
        records.append(make_record(
            "compute.pi_amp", est.value.value, est.value.value, est.value.err,
            Fraction(0), params=params))
    else:  # p-eval
        x = args.x if args.x is not None else Fraction(0)
        n = config.N if config.N is not None else 1000
        v = pfunc.p_eval(x, n, prec)
        records.append(make_record(
            f"compute.p_eval.x{x.numerator}_{x.denominator}", v.value, v.value,
            v.err, Fraction(0), params={"x": str(x), "N": n}))
    _emit(records, config)
    return EXIT_PASS


def cmd_verify(args: argparse.Namespace) -> int:
    config = _config_from(args)
    records = run_suite(args.suite, config)
    _emit(records, config)
    return EXIT_PASS if all_passed(records) else EXIT_FAIL


def cmd_bijection_dump(args: argparse.Namespace) -> int:
    refuse_unread(f"bijection-dump --kind {args.kind}", {"m_sweep": args.m_sweep},
                  DUMP_READS[args.kind])
    k, bound = args.k, args.bound
    sweep = args.m_sweep or (bound,)
    # alpha dumps are limited by bijection.VERTEX_CEILING instead
    if not 2 <= k <= 5 or (args.kind == "beta" and max(bound, *sweep) > 60):
        raise DomainError("bijection-dump needs k in 2..5, and a bound and "
                          "--m-sweep values <= 60 for --kind beta")
    out_dir = args.output_path or "."
    os.makedirs(out_dir, exist_ok=True)
    components = []
    if args.kind == "alpha":
        # residual vertices are the singleton components; they dump separately
        singles = []
        for c in bijection.alpha_walk(k, bound):
            (components if c.size() > 1 else singles).append(c)
        path = os.path.join(out_dir, f"alpha_k{k}_b{bound}.components.txt")
        _write_components(path, components)
        _write_components(
            os.path.join(out_dir, f"alpha_k{k}_b{bound}.residual_singletons.txt"), singles)
    else:
        path = os.path.join(out_dir, f"beta_k{k}.components.txt")
        seed_vertex = bijection.V1((), 1) if k == 2 else bijection.V1((1,), 2)
        with open(path, "w", encoding="utf-8") as fh:
            for m in sweep:
                c = bijection.component(seed_vertex, "beta", k, M=m)
                components.append(c)
                fh.write(f"# M={m}\n")
                fh.write(bijection.format_component(c))
                fh.write("\n")
    sizes = sorted(c.size() for c in components)
    largest = max((abs(c.weight_sum) for c in components), default=Fraction(0))
    sys.stdout.write(f"components: {len(components)}\n")
    sys.stdout.write(f"size histogram: {_histogram(sizes)}\n")
    sys.stdout.write(
        f"max |weight_sum|: {largest.numerator}/{largest.denominator}\n")
    sys.stdout.write(f"dump: {path}\n")
    return EXIT_PASS


def _write_components(path: str, components) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for c in components:
            fh.write(bijection.format_component(c))
            fh.write("\n")


def _histogram(sizes: list[int]) -> str:
    counts: dict[int, int] = {}
    for s in sizes:
        counts[s] = counts.get(s, 0) + 1
    return " ".join(f"{size}x{count}" for size, count in sorted(counts.items()))


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "compute":
            return cmd_compute(args)
        if args.command == "verify":
            return cmd_verify(args)
        return cmd_bijection_dump(args)
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
