"""Record, or compare, the cross-validation decisions of a fixed set of fits.

The set: seeds 0-5 x processes d1, d2, d3 x (n, c) in {(300, 2), (600, 3)},
odd seeds pooled at random and even seeds homogeneously; p = 0, 1, 2 with
the Epanechnikov kernel plus one p = 1 case in another kernel (Gaussian for
seeds 0-1, tricube for 2-3, quartic for 4-5); each of the four estimators at
its default criterion: 576 ``select_bandwidth`` traces. Per trace the JSON
holds the criterion bytes, the chosen h, the trim bounds, the count and a
hash of the ``FoldFailure`` tuples in order, and the curve values and failure
mask at the chosen h on 81 points of [-2, 2].

Pytest does not collect this file. Run it against any tree by putting that
tree's ``src`` on the path, then compare two records::

    PYTHONPATH=src python tests/trace_set.py --out a.json
    PYTHONPATH=/other/tree/src python tests/trace_set.py --out b.json
    python tests/trace_set.py --compare a.json b.json

``--compare`` goes through every trace field by field. The decisions are
the chosen h, the criterion's NaN pattern, the count and digest of the
fold failures, the trim bounds, the curve failure mask and whether CV ran
at all; the criterion and curve values are drift, reported as the count of
values that differ and their largest relative difference. It exits 0 when
the records are identical, 1 when only values drift, and 2 when a decision
or the trace set differs.
"""

import argparse
import array
import hashlib
import json
import sys

SEEDS = range(6)
DGPS = ("d1", "d2", "d3")
SIZES = ((300, 2), (600, 3))
EXTRA_KERNEL = ("gaussian", "gaussian", "tricube", "tricube", "quartic", "quartic")


def _failures_digest(failures) -> str:
    lines = (f"{f.h.hex()} {f.pool_index} {f.x.hex()} {f.reason}\n" for f in failures)
    return hashlib.sha256("".join(lines).encode()).hexdigest()


def _record(data, tag, cfg, grid) -> dict:
    from poolreg import FitConfig, NoValidBandwidth, estimate_curve, select_bandwidth

    try:
        trace = select_bandwidth(data, tag, cfg)
    except NoValidBandwidth as exc:
        return {"error": str(exc)}
    curve = estimate_curve(tag, data, FitConfig(p=cfg.p, h=trace.chosen_h, kernel=cfg.kernel),
                           grid)
    return {
        "criterion": trace.criterion.tobytes().hex(),
        "chosen_h": trace.chosen_h.hex(),
        "trim_bounds": [b.hex() for b in trace.trim_bounds],
        "failures": [len(trace.failures), _failures_digest(trace.failures)],
        "curve": curve.values.tobytes().hex(),
        "curve_failed": "".join("1" if bad else "0" for bad in curve.failed),
    }


def record_all() -> dict:
    """Every trace of the set, keyed by its case, in a fixed order."""
    # imported here, so --compare runs without numpy or poolreg on the path
    import numpy as np
    from poolreg import (
        Estimator, FitConfig, KernelKind, get_dgp, pool_homogeneous, pool_random, sample_dgp,
    )

    grid = np.linspace(-2.0, 2.0, 81)
    out = {}
    for seed in SEEDS:
        design = "random" if seed % 2 else "homogeneous"
        cases = ([(p, KernelKind.EPANECHNIKOV) for p in (0, 1, 2)]
                 + [(1, KernelKind(EXTRA_KERNEL[seed]))])
        for dgp in DGPS:
            for n, c in SIZES:
                rng = np.random.default_rng(seed)
                people = sample_dgp(get_dgp(dgp), n, rng)
                pooled = (pool_random(people, c, rng) if design == "random"
                          else pool_homogeneous(people, c))
                for p, kernel in cases:
                    cfg = FitConfig(p=p, h=1.0, kernel=kernel)
                    for tag in Estimator:
                        data = people if tag is Estimator.INDIVIDUAL else pooled
                        key = (f"seed={seed} {dgp} n={n} c={c} {design} p={p} "
                               f"{kernel.value} {tag.value}")
                        out[key] = _record(data, tag, cfg, grid)
    return out


DECISIONS = ("error", "chosen_h", "trim_bounds", "failures", "curve_failed")
DRIFT = ("criterion", "curve")


def _values(hex_bytes: str) -> array.array:
    return array.array("d", bytes.fromhex(hex_bytes))


def _drift(a: str, b: str) -> tuple[bool, int, float]:
    """Whether the NaN patterns of two value records differ, how many values differ, and
    the largest relative difference |a - b| / max(|a|, |b|) among them."""
    nan_moved, count, largest = False, 0, 0.0
    for u, v in zip(_values(a), _values(b)):
        if u != u or v != v:
            nan_moved |= (u != u) != (v != v)
        elif u != v:
            count += 1
            largest = max(largest, abs(u - v) / max(abs(u), abs(v)))
    return nan_moved, count, largest


def compare(path_a: str, path_b: str) -> int:
    with open(path_a, encoding="utf-8") as fh:
        a = json.load(fh)
    with open(path_b, encoding="utf-8") as fh:
        b = json.load(fh)
    if list(a) != list(b):
        print(f"the two records hold different trace sets ({len(a)} and {len(b)} traces)")
        return 2
    decided = []
    drift = {name: [0, 0, 0.0, None] for name in DRIFT}  # traces, values, largest, where
    for key in a:
        for name in DECISIONS:
            if a[key].get(name) != b[key].get(name):
                decided.append(f"{key}: {name}")
        for name in DRIFT:
            if name not in a[key] or name not in b[key] or a[key][name] == b[key][name]:
                continue
            nan_moved, count, largest = _drift(a[key][name], b[key][name])
            if nan_moved and name == "criterion":
                decided.append(f"{key}: criterion NaN pattern")
            seen = drift[name]
            seen[0], seen[1] = seen[0] + 1, seen[1] + count
            if largest > seen[2]:
                seen[2], seen[3] = largest, key
    print(f"{len(a)} traces compared")
    for name, (traces, count, largest, where) in drift.items():
        if traces:
            print(f"{name}: {count} values differ in {traces} traces, largest relative "
                  f"difference {largest:.3g} ({where})")
        else:
            print(f"{name}: identical")
    if decided:
        print(f"decisions differ in {len(decided)} fields:")
        for line in decided:
            print(f"  {line}")
        return 2
    print("decisions identical")
    return 1 if any(traces for traces, *_ in drift.values()) else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--out", help="write the record of the trace set here")
    action.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two records")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    traces = record_all()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(traces, fh, indent=0)
    failures = sum(t["failures"][0] for t in traces.values() if "failures" in t)
    print(f"{len(traces)} traces, {failures} fold-failure records -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
