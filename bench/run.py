#!/usr/bin/env python3
"""Benchmark of the mzvfactor verification engine.

    python3 bench/run.py --workload {exact-graph,certified-limits,p-scan}
                         --seed N --seconds S --trace {0,1} [--spans PATH]

Run it from the root of a source checkout; it imports the engine from
`src/`. One process, one closed-loop client: the request list of the
workload (built from --seed, see workloads.py) is sent through
`mzvfactor.cli.main` in-process, each request only after the previous one
returned, in a temporary directory inside the checkout that is removed at
the end. Passes over the list repeat while another still ends within
--seconds of elapsed time.

--trace 0 prints the end-to-end metrics: the median pass time, the median
and the tail of the per-request latencies (each request's median over
passes), peak resident memory and the set-up time of a fresh interpreter.
Times are process CPU time (the engine is single-threaded and CPU-bound),
scaled to a reference host speed by a fixed unit of stdlib work timed
between requests (calibration.py), so that the host's slow and fast phases
drop out. The unscaled figures are printed too. --trace 1 spends half the time
untraced and half traced (see tracing.py) and prints the per-layer metrics;
--spans PATH (outside the checkout) also writes the traced spans as JSON
lines. Every output is checked (checks.py); later passes must repeat the
first pass byte for byte. Metric names and units come from BENCHMARK.json.
The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True   # a run leaves no __pycache__ behind

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import tempfile
import time
from pathlib import Path

import calibration
import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"

TAIL_BEYOND = 10      # the tail percentile keeps at least this many requests beyond it
SETUP_SAMPLES = 4     # taken before and again after the passes
SETUP_CODE = ("import sys, time\n"
              "t0 = time.process_time()\n"
              "import mzvfactor.cli\n"
              "mzvfactor.cli.build_parser()\n"
              "t = time.process_time() - t0\n"
              f"sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})\n"
              "import calibration\n"
              "print(repr(t), *(repr(calibration.unit_s()) for _ in range(3)))\n")


def percentile(values: list[float], q: int) -> float:
    """Nearest-rank q-th percentile."""
    ordered = sorted(values)
    rank = -(-q * len(ordered) // 100)
    return ordered[max(rank, 1) - 1]


def tail_percentile(n: int) -> int:
    """The highest integer percentile with at least TAIL_BEYOND of n samples
    beyond its nearest rank; at least 50, so n must be 2 * TAIL_BEYOND or more."""
    for q in range(99, 49, -1):
        if n - -(-q * n // 100) >= TAIL_BEYOND:
            return q
    raise ValueError(f"{n} samples leave no tail percentile at or above 50")


def measure_setup(work: Path, count: int) -> list[tuple[float, float]]:
    """CPU seconds to import mzvfactor.cli and build its parser, each in a fresh
    interpreter whose bytecode cache lives under `work`, as (measured,
    scaled) pairs; the scale is the median of three calibration units timed
    in the same interpreter right after. A first untimed interpreter fills
    the cache when it is empty."""
    cache = work / "pycache"
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONPYCACHEPREFIX=str(cache))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    samples = []
    for _ in range(count + (not cache.exists())):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=work, env=env,
                             capture_output=True, text=True, timeout=60, check=True)
        t, *units = map(float, out.stdout.split())
        samples.append((t, t * calibration.REFERENCE_S / statistics.median(units)))
    return samples[-count:]


class Bench:
    """Runs passes over one request list and checks every outcome."""

    def __init__(self, cli, requests: list[list[str]], work: Path):
        self.cli = cli
        self.work = work
        self.requests = [argv + ["--out", f"dumps/r{i}"] if argv[0] == "bijection-dump"
                         else argv for i, argv in enumerate(requests)]
        self.reference: list[tuple] | None = None    # outputs of the first pass
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _request(self, argv: list[str]) -> tuple[float, object, str]:
        out = io.StringIO()
        t0 = time.process_time()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                rc = self.cli.main(argv)
        except SystemExit as exc:              # argparse rejects the argv
            rc = exc.code
        except Exception as exc:               # noqa: BLE001 - a failed request, not a crash
            rc = f"raised {exc!r}"
        return time.process_time() - t0, rc, out.getvalue()

    def _files(self, i: int) -> dict[str, str]:
        base = self.work / "dumps" / f"r{i}"
        if not base.is_dir():
            return {}
        return {p.relative_to(self.work).as_posix(): p.read_text(encoding="utf-8")
                for p in sorted(base.iterdir())}

    def run_pass(self, tracer: tracing.Tracer | None = None) -> tuple[list[float], list[float]]:
        """One pass over the list; returns the measured and the scaled
        latency of each request."""
        gc.collect()
        latencies, results, gaps = [], [], [calibration.gap(0.0)]
        for i, argv in enumerate(self.requests):
            if tracer is not None:
                tracer.request_id = i
            latency, rc, stdout = self._request(argv)
            gaps.append(calibration.gap(latency))
            latencies.append(latency)
            results.append((rc, stdout))
        outputs = [(rc, stdout, self._files(i)) for i, (rc, stdout) in enumerate(results)]
        self._check(outputs)
        return latencies, calibration.scale(latencies, gaps)

    def _check(self, outputs: list[tuple]) -> None:
        first = self.reference is None
        if first:
            self.reference = outputs
        for i, (argv, (rc, stdout, files)) in enumerate(zip(self.requests, outputs)):
            if rc != 0:
                problems = [f"exit {rc}"]
            elif first:
                try:
                    problems = checks.check(argv, stdout, files)
                except (LookupError, TypeError, ValueError, ArithmeticError) as exc:
                    problems = [f"unreadable output: {exc!r}"]
            elif (rc, stdout, files) != self.reference[i]:
                problems = ["output differs from the first pass"]
            else:
                problems = []
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems.append(f"{' '.join(argv)}: {'; '.join(problems)}")

    def run_for(self, seconds: float, traced: bool = False):
        """Passes for `seconds` of elapsed time: another pass starts only if
        one more of the median elapsed length so far would end in time, so
        a run does not overshoot by up to a pass. Returns the measured and
        the scaled latencies of each pass and each pass's tracer (None when
        untraced)."""
        measured, scaled, layers, elapsed = [], [], [], []
        deadline = time.perf_counter() + seconds
        while not elapsed or time.perf_counter() + statistics.median(elapsed) <= deadline:
            started = time.perf_counter()
            tracer = tracing.Tracer() if traced else None
            try:
                if tracer is not None:
                    tracer.install()
                lat, lat_scaled = self.run_pass(tracer)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            elapsed.append(time.perf_counter() - started)
            measured.append(lat)
            scaled.append(lat_scaled)
            layers.append(tracer)
        return measured, scaled, layers

    def report_sha256(self) -> str:
        h = hashlib.sha256()
        for _, stdout, files in self.reference or []:
            h.update(stdout.encode("utf-8"))
            for path, text in files.items():
                h.update(path.encode("utf-8"))
                h.update(text.encode("utf-8"))
        return h.hexdigest()


def latency_figures(passes: list[list[float]]) -> dict[str, float]:
    """Pass time (the sum of the request latencies) and the per-request
    percentiles, each a median over passes. Not the best over passes: a
    scaled latency can also read low, when the units beside it caught a
    burst of interference the request did not."""
    n = len(passes[0])
    per_request = [statistics.median(p[i] for p in passes) for i in range(n)]
    return {
        "wall_s": statistics.median(sum(p) for p in passes),
        "latency_p50_s": percentile(per_request, 50),
        "latency_tail_s": percentile(per_request, tail_percentile(n)),
    }


def end_to_end(measured, scaled, setup) -> tuple[dict, list[str]]:
    """Every end-to-end metric this benchmark knows, and notes on how they
    were taken, with the unscaled figures."""
    n = len(scaled[0])
    q = tail_percentile(n)
    values = {
        **latency_figures(scaled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(s for _, s in setup),
    }
    raw = latency_figures(measured)
    notes = [f"requests per pass: {n}; passes: {len(scaled)}",
             f"latency_tail_s is p{q} of {n} per-request latencies "
             f"({n - -(-q * n // 100)} beyond it)",
             f"setup_s is the median of {len(setup)} fresh interpreters",
             "times are CPU seconds scaled to the reference speed; unscaled: "
             + ", ".join(f"{k} {v:.4f}" for k, v in raw.items())
             + f", setup_s {statistics.median(t for t, _ in setup):.4f}"]
    return values, notes


def per_layer(scaled, tracers, plain_scaled, units: dict[str, str]) -> dict:
    values = {}
    passes = [t.metrics() for t in tracers]
    for name in tracing.PER_LAYER:
        if name == "trace.overhead_ratio":
            values[name] = (latency_figures(scaled)["wall_s"]
                            / latency_figures(plain_scaled)["wall_s"])
        elif units[name] == "s":
            values[name] = statistics.median(p[name] for p in passes)
        else:
            values[name] = passes[0][name]    # counts repeat exactly across passes
    return values


class Terminated(BaseException):
    """SIGTERM, raised past the request loop's handlers so that the
    temporary directory is still removed."""


def _terminate(signum, frame):
    raise Terminated(signum)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans", type=Path,
                   help="with --trace 1, write the spans here as JSON lines; "
                        "must lie outside the checkout")
    return p.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    spans = args.spans.resolve() if args.spans is not None else None
    if spans is not None and spans.is_relative_to(ROOT):
        print(f"run.py: --spans {spans} lies inside the checkout {ROOT}; "
              "a run may leave no file there", file=sys.stderr)
        return 2
    if not (SRC / "mzvfactor" / "cli.py").is_file():
        print(f"run.py: no engine source under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from mzvfactor import cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"run.py: imported mzvfactor from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    listed = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    requests = workloads.WORKLOADS[args.workload](args.seed)
    signal.signal(signal.SIGTERM, _terminate)
    cwd = os.getcwd()
    work = Path(tempfile.mkdtemp(prefix=".bench-tmp-", dir=ROOT))
    try:
        os.chdir(work)
        bench = Bench(cli, requests, work)
        if args.trace:
            _, plain, _ = bench.run_for(args.seconds / 2)
            _, scaled, tracers = bench.run_for(args.seconds / 2, traced=True)
            metrics = per_layer(scaled, tracers, plain, units)
            notes = [f"untraced passes: {len(plain)}; traced passes: {len(scaled)}"]
            if spans is not None:
                with open(spans, "w", encoding="utf-8") as fh:
                    for i, tracer in enumerate(tracers):
                        tracer.write_spans(fh, i)
        else:
            setup = measure_setup(work, SETUP_SAMPLES)
            measured, scaled, _ = bench.run_for(args.seconds)
            setup += measure_setup(work, SETUP_SAMPLES)
            metrics, notes = end_to_end(measured, scaled, setup)
    except Terminated:
        return 128 + signal.SIGTERM
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)

    for problem in bench.problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"workload: {args.workload}; seed: {args.seed}; trace: {args.trace}")
    for note in notes:
        print(note)
    print(f"report_sha256: {bench.report_sha256()}")
    print(f"failed_ratio: {bench.failed}/{bench.attempted} = "
          f"{bench.failed / bench.attempted:.4f}")
    for name, unit in units.items():
        print(f"{name}: {metrics[name]} {unit}")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
