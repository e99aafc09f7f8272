"""Seeded request lists for the three benchmark workloads.

Each generator turns a seed into a list of `mzvfactor` argv lists; the
engine sees nothing but those lists. Sizes are drawn by stratified sampling:
a parameter range is cut into as many equal strata as there are requests of
that kind and one value is drawn inside each stratum. The seed then changes
every argv (and so every report byte) while the multiset of sizes, and with
it the cost of a pass, stays nearly fixed. That keeps run-to-run spread
small without pinning the inputs.

Every parameter stays inside the engine's documented domain, so no request
is expected to fail:
  - `p-eval` needs 1 - |x| >= 1/N; here |x| <= 9/10 and N >= 500.
  - `residuals` needs N <= 60.
  - `bijection-dump` needs k in 2..5 and bound <= 60.
Negative x is written `--x=-a/b`: argparse reads `--x -a/b` as a missing
value and the request exits 2 (see NOTES.md).
"""

from __future__ import annotations

import random

def _strata(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """`count` integers in [lo, hi], one uniform draw in each of `count`
    equal-width strata, in ascending stratum order."""
    width = (hi - lo + 1) / count
    return [lo + int(width * (i + rng.random())) for i in range(count)]


def _json(argv: list[str]) -> list[str]:
    return argv + ["--format", "json"]


# ---------------------------------------------------------------------------
# exact-graph
# ---------------------------------------------------------------------------

def exact_graph(seed: int) -> list[list[str]]:
    """Residual identities (k 2-4), alpha and beta closures, product scans
    and component dumps. Beta closure is the heavy tail: it costs about M^3
    because every pair vertex re-lists all M partners."""
    rng = random.Random(f"exact-graph:{seed}")
    reqs: list[list[str]] = []
    for k, lo, hi, count in ((2, 20, 60, 5), (3, 10, 16, 5), (4, 7, 10, 5)):
        for n in _strata(rng, lo, hi, count):
            reqs.append(_json(["verify", "residuals", "--k", str(k), "--N", str(n)]))
    for k, lo, hi, count in ((2, 10, 30, 4), (3, 6, 12, 4), (4, 5, 9, 4)):
        for b in _strata(rng, lo, hi, count):
            reqs.append(_json(["verify", "bijection-alpha", "--k", str(k),
                               "--bound", str(b)]))
    for m in _strata(rng, 8, 24, 10):
        reqs.append(_json(["verify", "bijection-beta", "--M", str(m)]))
    for n, grid in zip(_strata(rng, 20, 60, 6), _strata(rng, 41, 121, 6)):
        reqs.append(_json(["verify", "product-structure", "--N", str(n),
                           "--bound", str(grid)]))
    for k, lo, hi, count in ((2, 8, 40, 3), (3, 5, 10, 3), (4, 5, 8, 2), (5, 6, 7, 2)):
        for b in _strata(rng, lo, hi, count):
            reqs.append(["bijection-dump", "--k", str(k), "--bound", str(b),
                         "--kind", "alpha"])
    for k, lo, hi in ((2, 8, 12), (3, 8, 20)):
        m = rng.randint(lo, hi)
        reqs.append(["bijection-dump", "--k", str(k), "--bound", str(3 * m),
                     "--kind", "beta", "--m-sweep", f"{m},{2 * m},{3 * m}"])
    rng.shuffle(reqs)
    return reqs


# ---------------------------------------------------------------------------
# certified-limits
# ---------------------------------------------------------------------------

# Precision bands for `compute mzv --k K`. mzv_limit escalates in steps (more
# Euler-Maclaurin terms, then doubling N), so its cost is a step function of
# the precision. Each band lies strictly between two steps of the escalation
# at every listed k, so a draw inside a band moves the digits, not the work.
# The bands are (k values, lo, hi, copies): one attempt at N = 256; four
# attempts ending at N = 256, em = 9; N = 512; N = 1024; N = 2048, where a
# row costs about 4x the N = 1024 row (0.6-1.5 s for k = 3-5). Each k of a
# band gets `copies` requests, so the cost of a pass does not depend on the
# seed.
_MZV_BANDS = (
    ((1, 2, 3, 4, 5, 6, 7, 8), 64, 116, 2),
    ((1, 2, 3), 147, 155, 1),
    ((1, 2, 3, 4), 163, 176, 1),
    ((4, 5, 6), 190, 199, 1),
    ((3, 4, 5), 207, 219, 1),
)


def certified_limits(seed: int) -> list[list[str]]:
    """compute mzv|pi-freq|pi-amp and verify basel|factorization|pi-equality
    at seeded precisions from 64 to 224 bits."""
    rng = random.Random(f"certified-limits:{seed}")
    reqs: list[list[str]] = []
    for ks, lo, hi, copies in _MZV_BANDS:
        band_ks = list(ks) * copies
        rng.shuffle(band_ks)
        for k, p in zip(band_ks, _strata(rng, lo, hi, len(band_ks))):
            reqs.append(_json(["compute", "mzv", "--k", str(k), "--precision", str(p)]))
    for p in _strata(rng, 64, 224, 8):
        reqs.append(_json(["compute", "pi-freq", "--precision", str(p)]))
    # above N = 10^4 no exact partial product is printed; between about 3600
    # and 10^4 printing it trips the int-to-str digit limit (see NOTES.md)
    for n, p in zip(_strata(rng, 10001, 20000, 8), _strata(rng, 64, 224, 8)):
        reqs.append(_json(["compute", "pi-amp", "--N", str(n), "--precision", str(p)]))
    # every k <= K shares the one-attempt band below 117 bits
    for k, p in zip(range(2, 8), _strata(rng, 64, 116, 6)):
        reqs.append(_json(["verify", "basel", "--k", str(k), "--precision", str(p)]))
    for k, p in zip(range(2, 7), _strata(rng, 64, 116, 5)):
        reqs.append(_json(["verify", "factorization", "--k", str(k),
                           "--precision", str(p)]))
    for p in _strata(rng, 64, 80, 3):
        reqs.append(_json(["verify", "pi-equality", "--precision", str(p)]))
    rng.shuffle(reqs)
    return reqs


# ---------------------------------------------------------------------------
# p-scan
# ---------------------------------------------------------------------------

def p_scan(seed: int) -> list[list[str]]:
    """`compute p-eval` with N in 500..4000, |x| <= 9/10 and P in 64..256,
    N and P each stratified-uniform over their range. Precision strata are
    paired with size strata by a fixed permutation so a precision-dependent
    cost would stay seed-stable too. Thirty requests keep a pass near ten
    seconds, so a 40-second run repeats it two to three times."""
    rng = random.Random(f"p-scan:{seed}")
    count = 30
    sizes = _strata(rng, 500, 4000, count)
    precisions = _strata(rng, 64, 256, count)
    reqs = []
    for i, n in enumerate(sizes):
        den = rng.randint(2, 20)
        num = rng.randint(0, 9 * den // 10)
        sign = "-" if num and rng.random() < 0.5 else ""
        p = precisions[(7 * i) % count]
        reqs.append(_json(["compute", "p-eval", f"--x={sign}{num}/{den}",
                           "--N", str(n), "--precision", str(p)]))
    rng.shuffle(reqs)
    return reqs


WORKLOADS = {
    "exact-graph": exact_graph,
    "certified-limits": certified_limits,
    "p-scan": p_scan,
}
