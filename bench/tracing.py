"""Outside-in layer trace of mzvfactor.

The tracer wraps public functions of the engine's modules from the
benchmark's side and restores the originals afterwards; the engine itself
carries no tracing code. Every wrapped non-leaf call records a span (name,
start, end, parent, request id). Hot leaves (the ApproxReal operators,
`round_to_bits`, `err_up`, `bijection.weight` and the two neighbour
enumerators) run millions of times, so they are only counted and timed in
aggregate. Self time is a call's duration minus the union of its children's
intervals.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

clock = time.perf_counter

# (module, attribute) pairs recorded as spans.
SPANS = (
    ("numeric", "pi_oracle"),
    ("numeric", "sqrt_bounds"),
    ("numeric", "power_sum_tail_bracket"),
    ("series", "mzv_row"),
    ("series", "mzv_truncated"),
    ("series", "mzv_limit"),
    ("series", "mzv_limit_bracket"),
    ("series", "tail_elementary_brackets"),
    ("series", "zeta_even_truncated"),
    ("bijection", "alpha_residual_identity"),
    ("bijection", "beta_residual_identity"),
    ("bijection", "alpha_components_up_to"),
    ("bijection", "residual_classification_consistent"),
    ("bijection", "component"),
    ("bijection", "factorization_check"),
    ("product", "eval_F"),
    ("product", "eval_F_shifted"),
    ("product", "monotonicity_scan"),
    ("pfunc", "p_eval"),
    ("pi_constants", "pi_freq"),
    ("pi_constants", "zeta2_bracket"),
    ("pi_constants", "pi_amp"),
    ("pi_constants", "arc_length"),
    ("pi_constants", "g_eval"),
    ("report", "make_record"),
    ("report", "render"),
    ("suites", "run_suite"),
    ("cli", "main"),
)

# (module, attribute) pairs counted and timed in aggregate only.
LEAVES = (
    ("numeric", "round_to_bits"),
    ("numeric", "err_up"),
    ("bijection", "weight"),
    ("bijection", "alpha_neighbors"),
    ("bijection", "beta_neighbors"),
)

# ApproxReal methods aggregated together as "numeric.approx".
APPROX_OPS = ("__neg__", "__abs__", "__add__", "__radd__", "__sub__", "__rsub__",
              "__mul__", "__rmul__", "__truediv__", "__rtruediv__", "sqrt", "power")

# The per-layer metrics (names, units and direction are in BENCHMARK.json),
# each with the end-to-end metric it should move, the workload that shows
# it, and the workloads where it should stay flat.
PER_LAYER = {
    "numeric.approx.ops": ("wall_s, latency_p50_s", "p-scan", "exact-graph"),
    "numeric.approx.self_s": ("wall_s, latency_p50_s", "p-scan", "exact-graph"),
    "numeric.round_to_bits.calls": ("wall_s, latency_p50_s", "p-scan", "exact-graph"),
    "numeric.err_up.calls": ("wall_s, latency_p50_s", "p-scan", "exact-graph"),
    "numeric.pi_oracle.calls": ("latency_p50_s", "certified-limits", ""),
    "numeric.pi_oracle.self_s": ("latency_p50_s", "certified-limits", ""),
    "numeric.sqrt_bounds.self_s": ("latency_p50_s", "certified-limits", ""),
    "numeric.power_sum_tail_bracket.calls": ("latency_p50_s", "certified-limits", ""),
    "numeric.power_sum_tail_bracket.self_s": ("latency_p50_s", "certified-limits", ""),
    "series.mzv_row.calls": ("latency_tail_s, wall_s", "certified-limits", "p-scan; small on exact-graph"),
    "series.mzv_row.self_s": ("latency_tail_s, wall_s", "certified-limits", "p-scan; small on exact-graph"),
    "series.mzv_row.steps": ("latency_tail_s, wall_s", "certified-limits", "p-scan; small on exact-graph"),
    "series.mzv_row.max_bits": ("latency_tail_s, wall_s", "certified-limits", "p-scan; small on exact-graph"),
    "series.mzv_limit.calls": ("latency_tail_s, wall_s", "certified-limits", ""),
    "series.mzv_limit.self_s": ("latency_tail_s, wall_s", "certified-limits", ""),
    "series.mzv_limit.attempts_per_call": ("latency_tail_s, wall_s", "certified-limits", ""),
    "series.tail_elementary_brackets.self_s": ("latency_tail_s, wall_s", "certified-limits", ""),
    "series.zeta_even_truncated.self_s": ("latency_tail_s, wall_s", "certified-limits", ""),
    "bijection.weight.calls": ("wall_s", "exact-graph", ""),
    "bijection.weight.self_s": ("wall_s", "exact-graph", ""),
    "bijection.alpha_residual_identity.self_s": ("wall_s", "exact-graph", ""),
    "bijection.beta_residual_identity.self_s": ("wall_s", "exact-graph", ""),
    "bijection.alpha_components_up_to.self_s": ("wall_s", "exact-graph", ""),
    "bijection.residual_classification_consistent.self_s": ("wall_s", "exact-graph", ""),
    "bijection.component.calls": ("latency_tail_s, peak_rss_mb", "exact-graph", ""),
    "bijection.component.self_s": ("latency_tail_s, peak_rss_mb", "exact-graph", ""),
    "bijection.component.vertices": ("latency_tail_s, peak_rss_mb", "exact-graph", ""),
    "bijection.alpha_neighbors.calls": ("latency_tail_s, peak_rss_mb", "exact-graph", ""),
    "bijection.alpha_neighbors.self_s": ("latency_tail_s, peak_rss_mb", "exact-graph", ""),
    "bijection.alpha_neighbors.entries": ("latency_tail_s, peak_rss_mb", "exact-graph", ""),
    "bijection.beta_neighbors.calls": ("latency_tail_s, peak_rss_mb", "exact-graph", ""),
    "bijection.beta_neighbors.self_s": ("latency_tail_s, peak_rss_mb", "exact-graph", ""),
    "bijection.beta_neighbors.entries": ("latency_tail_s, peak_rss_mb", "exact-graph", ""),
    "bijection.closure.useful_ratio": ("latency_tail_s, peak_rss_mb", "exact-graph", ""),
    "bijection.factorization_check.self_s": ("latency_p50_s", "certified-limits", "p-scan"),
    "product.eval_F.calls": ("wall_s", "exact-graph", ""),
    "product.eval_F.self_s": ("wall_s", "exact-graph", ""),
    "product.eval_F_shifted.calls": ("wall_s", "exact-graph", ""),
    "product.eval_F_shifted.self_s": ("wall_s", "exact-graph", ""),
    "product.monotonicity_scan.self_s": ("wall_s", "exact-graph", ""),
    "pfunc.p_eval.calls": ("wall_s, latency_p50_s", "p-scan", ""),
    "pfunc.p_eval.self_s": ("wall_s, latency_p50_s", "p-scan", ""),
    "pfunc.p_eval.terms": ("wall_s, latency_p50_s", "p-scan", ""),
    "pi_constants.pi_freq.self_s": ("latency_p50_s, latency_tail_s", "certified-limits", "exact-graph, p-scan"),
    "pi_constants.pi_freq.attempts_per_call": ("latency_p50_s, latency_tail_s", "certified-limits", "exact-graph, p-scan"),
    "pi_constants.pi_amp.self_s": ("latency_p50_s, latency_tail_s", "certified-limits", "exact-graph, p-scan"),
    "pi_constants.arc_length.self_s": ("latency_p50_s, latency_tail_s", "certified-limits", "exact-graph, p-scan"),
    "pi_constants.g_eval.calls": ("latency_p50_s, latency_tail_s", "certified-limits", "exact-graph, p-scan"),
    "pi_constants.g_eval.self_s": ("latency_p50_s, latency_tail_s", "certified-limits", "exact-graph, p-scan"),
    "report.make_record.calls": ("latency_p50_s", "all three", ""),
    "report.make_record.self_s": ("latency_p50_s", "all three", ""),
    "report.render.self_s": ("latency_p50_s", "all three", ""),
    "report.bytes": ("latency_p50_s", "all three", ""),
    "suites.run_suite.self_s": ("latency_p50_s", "all three", ""),
    "cli.main.calls": ("latency_p50_s", "all three", ""),
    "cli.main.self_s": ("latency_p50_s", "all three", ""),
    "trace.overhead_ratio": ("none (keeps end-to-end runs untraced)", "all three", ""),
}



def union_length(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of `intervals`."""
    covered = 0.0
    run_start = run_end = None
    for s, e in sorted(intervals):
        s, e = max(s, start), min(e, end)
        if e <= s:
            continue
        if run_end is None or s > run_end:
            if run_end is not None:
                covered += run_end - run_start
            run_start, run_end = s, e
        else:
            run_end = max(run_end, e)
    if run_end is not None:
        covered += run_end - run_start
    return covered


def self_time(start: float, end: float, children) -> float:
    """A span's duration minus the union of its children's intervals."""
    return (end - start) - union_length(start, end, children)


def _engine_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "mzvfactor" or name.startswith("mzvfactor."))]


class Tracer:
    """Spans and aggregate counters for one traced pass.

    `install()` rebinds every wrapped function in every engine module that
    binds it (several are imported by name elsewhere, e.g. `pi_oracle` into
    `suites`, `bijection` and `pi_constants`); `uninstall()` puts the
    originals back.
    """

    def __init__(self) -> None:
        self.request_id: int | None = None
        self.spans: list[tuple] = []          # (id, name, start, end, parent, request, self_s)
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []          # open frames: [id, start, child intervals, name]
        self._next_id = 0
        self._restore: list[tuple] = []

    # ---- wrapping ----

    def _wrap(self, name: str, fn, span: bool, observe=None):
        stack = self._stack
        calls = self.calls
        self_s = self.self_s

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, clock(), [], name]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                start, children = frame[1], frame[2]
                own = self_time(start, end, children) if children else end - start
                calls[name] += 1
                self_s[name] += own
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2].append((start, end))
                if span:
                    self.spans.append((span_id, name, start, end,
                                       parent[0] if parent else None,
                                       self.request_id, own))
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        from mzvfactor import numeric
        modules = _engine_modules()
        for mod_name, attr in SPANS + LEAVES:
            mod = sys.modules[f"mzvfactor.{mod_name}"]
            orig = getattr(mod, attr)
            wrapped = self._wrap(f"{mod_name}.{attr}", orig,
                                 span=(mod_name, attr) in SPANS,
                                 observe=_OBSERVERS.get(f"{mod_name}.{attr}"))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._restore.append((m, key, orig))
                        setattr(m, key, wrapped)
        cls = numeric.ApproxReal
        for op in APPROX_OPS:
            orig = cls.__dict__[op]
            self._restore.append((cls, op, orig))
            setattr(cls, op, self._wrap("numeric.approx", orig, span=False))

    def uninstall(self) -> None:
        while self._restore:
            owner, key, orig = self._restore.pop()
            setattr(owner, key, orig)

    def parent_name(self) -> str | None:
        """Name of the innermost open wrapped call."""
        return self._stack[-1][3] if self._stack else None

    # ---- results ----

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics of this pass, except trace.overhead_ratio."""
        calls, self_s, counts = self.calls, self.self_s, self.counts
        out: dict[str, float] = {}
        for name in PER_LAYER:
            layer, _, kind = name.rpartition(".")
            if kind == "calls":
                out[name] = calls[layer]
            elif kind == "self_s":
                out[name] = self_s[layer]
            else:
                out[name] = counts.get(name, 0)
        del out["trace.overhead_ratio"]
        out["numeric.approx.ops"] = calls["numeric.approx"]
        out["series.mzv_limit.attempts_per_call"] = _ratio(
            calls["series.mzv_limit_bracket"], calls["series.mzv_limit"])
        out["pi_constants.pi_freq.attempts_per_call"] = _ratio(
            calls["pi_constants.zeta2_bracket"], calls["pi_constants.pi_freq"])
        out["bijection.closure.useful_ratio"] = _ratio(
            counts["bijection.component.vertices"], counts["bijection.closure.entries"])
        return out

    def write_spans(self, fh, pass_index: int) -> None:
        for span_id, name, start, end, parent, request, own in self.spans:
            fh.write(json.dumps({"pass": pass_index, "id": span_id, "name": name,
                                 "start": start, "end": end, "parent": parent,
                                 "request": request, "self_s": own}) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# ---- observers: counts read from a wrapped call's arguments and result ----

def _arg(args, kwargs, index: int, key: str):
    return args[index] if len(args) > index else kwargs[key]


def _observe_mzv_row(tracer, args, kwargs, row):
    tracer.counts["series.mzv_row.steps"] += (
        _arg(args, kwargs, 0, "N") * _arg(args, kwargs, 1, "k_max"))
    bits = max(q.denominator.bit_length() for q in row)
    if bits > tracer.counts["series.mzv_row.max_bits"]:
        tracer.counts["series.mzv_row.max_bits"] = bits


def _observe_component(tracer, args, kwargs, comp):
    tracer.counts["bijection.component.vertices"] += comp.size()


def _observe_neighbors(name):
    def observe(tracer, args, kwargs, result):
        tracer.counts[f"{name}.entries"] += len(result)
        if tracer.parent_name() == "bijection.component":
            tracer.counts["bijection.closure.entries"] += len(result)
    return observe


def _observe_p_eval(tracer, args, kwargs, result):
    tracer.counts["pfunc.p_eval.terms"] += _arg(args, kwargs, 1, "N")


def _observe_render(tracer, args, kwargs, text):
    tracer.counts["report.bytes"] += len(text.encode("utf-8"))


_OBSERVERS = {
    "series.mzv_row": _observe_mzv_row,
    "bijection.component": _observe_component,
    "bijection.alpha_neighbors": _observe_neighbors("bijection.alpha_neighbors"),
    "bijection.beta_neighbors": _observe_neighbors("bijection.beta_neighbors"),
    "pfunc.p_eval": _observe_p_eval,
    "report.render": _observe_render,
}
