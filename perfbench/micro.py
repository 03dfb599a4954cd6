"""Layer microbenchmarks on fixed operands, after a warm-up.

Each figure is the median over a few repeats of the time per operation,
so that a change to one layer can be read off without running a workload.
"""

from __future__ import annotations

import statistics
import timeit

REPEATS = 7

# metric name: (statement, operations per repeat, metric units per second)
CASES = {
    "scalars.mul_ns.rational": ("ra * rb", 20000, 1e9),
    "scalars.mul_ns.symbolic": ("sa * sb", 2000, 1e9),
    "scalars.invert_us.rational": ("ra.invert()", 20000, 1e6),
    "scalars.invert_us.symbolic": ("sc.invert()", 20000, 1e6),
    "series.mul_us.trunc24": ("fa * fb", 10, 1e6),
    "series.invert_us.trunc24": ("fd.invert()", 5, 1e6),
    "store.partitions_us.6": ("for _ in parts(six): pass", 200, 1e6),
}


def _per_op(stmt, namespace, number):
    timer = timeit.Timer(stmt, globals=namespace)
    timer.timeit(max(1, number // 10))
    runs = timer.repeat(REPEATS, number)
    return statistics.median(runs) / number


def _dense_series(series_mod, ring, lowest, trunc, dz_weight, shift):
    """A fixed dense series: rational on even, symbolic on odd exponents."""
    coeffs = {}
    for k in range(lowest, trunc + 1):
        text = f"{k + shift}/{abs(k) + 3}"
        coeffs[k] = ring.parse(text if k % 2 == 0 else text + "*t")
    return series_mod.FormalSeries(ring, coeffs, trunc, dz_weight, 0,
                                   lowest)


def run(mods):
    """Per-layer microbenchmark metrics, by name."""
    scalars, series = mods.scalars, mods.series
    rational = scalars.Ring([])
    symbolic = scalars.Ring([("t", None)])
    ns = {
        "ra": rational.parse("-15/8"), "rb": rational.parse("7/12"),
        "sa": symbolic.parse("1/2+3*t-5/4*t^2"),
        "sb": symbolic.parse("2/3*t+7*t^3"),
        "sc": symbolic.parse("-15/8"),
        "fa": _dense_series(series, symbolic, -4, 24, 1, 1),
        "fb": _dense_series(series, symbolic, -3, 24, 1, 2),
        "fd": series.FormalSeries(
            symbolic, {2: symbolic.parse("2"), 4: symbolic.parse("1/3*t"),
                       6: symbolic.parse("-5/7"),
                       8: symbolic.parse("2/9*t^2")}, 24, 1, 0, 2),
        "parts": mods.store.iter_partitions,
        "six": (1, 3, 5, 7, 9, 11),
    }
    return {name: scale * _per_op(stmt, ns, number)
            for name, (stmt, number, scale) in CASES.items()}
