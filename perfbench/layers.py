"""Where the traced run wraps the program, and the per-layer metrics.

Each wrapper sits on the name the program looks up at call time:
`iter_partitions` in the two engine modules that import it, `run_tr`,
`run_airy`, `zoo_build` and the svir checks in `cli`, `fit_parameters` in
`zoo`, and methods on their classes. Which end-to-end metric each layer
should move, and on which workload:

- scalars.*: wall_s everywhere, symbolic ring mostly on residue-deep.
- series.*, trengine.*: main_command_s on residue-deep; barely
  crosscheck-fitted.
- store.*: main_command_s on residue-deep and crosscheck-fitted.
- airyengine.*: main_command_s on crosscheck-fitted; nothing on
  residue-deep.
- svir.*: main_command_s on verify only.
- curve.*, zoo.*, biseries.*: setup_s on crosscheck-fitted and verify,
  and the verify-curve share of wall_s on verify.
- cli.*: wall_s on residue-deep; cli.cache_hit_ratio guards against a
  warm compute that silently recomputes.
"""

from __future__ import annotations

TR_LEVELS = range(3, 8)
AIRY_LEVELS = range(3, 7)

# How each per-layer metric of BENCHMARK.json is read off a traced
# iteration, by name, as (kind, source names):
#   count: the sum of these counters;
#   calls: the number of spans with these names;
#   self:  the self seconds of the spans with this name;
#   whole: the seconds of the spans with this name, children included;
#   ratio: the first counter over the second, 0 when the second is 0.
# The microbenchmarks (micro.CASES) and three figures of the traced run
# itself (cli.cache_hit_ratio, cli.output_bytes, trace.overhead_s; see
# run.trace) make up the rest of the per-layer metrics.
SOURCES = {
    **{name: ("count", name) for name in (
        "scalars.mul_calls", "scalars.add_calls", "scalars.zero_calls",
        "scalars.invert_calls", "series.sigma_calls", "series.derive_calls",
        "series.invert_calls", "store.partitions_calls",
        "store.partitions_yielded", "store.set_calls",
        "airyengine.coeff_calls", "svir.fockpoly_created")},
    "series.mul_calls": ("calls", "series.mul"),
    "svir.apply_mode_calls": ("calls", "svir.apply_mode"),
    "svir.check_calls": ("calls", "svir.check", "svir.axioms"),
    **{f"{span}_s": ("self", span) for span in (
        "series.mul", "store.partitions", "trengine.assemble",
        "trengine.extract", "airyengine.xi2", "airyengine.solve",
        "svir.apply_mode", "svir.axioms", "curve.bases", "curve.fit",
        "zoo.build", "zoo.validate", "cli.document", "cli.cache_store",
        "cli.cache_load")},
    "biseries.s": ("self", "biseries"),
}


def _engine_sources(prefix, levels):
    return {
        f"{prefix}.keys": ("count", f"{prefix}.keys"),
        f"{prefix}.nonzero": ("count", f"{prefix}.nonzero"),
        f"{prefix}.useful_ratio": ("ratio", f"{prefix}.nonzero",
                                   f"{prefix}.keys"),
        f"{prefix}.flookup_calls": ("count", f"{prefix}.flookup_calls"),
        f"{prefix}.flookup_zero_ratio": ("ratio", f"{prefix}.flookup_zero",
                                         f"{prefix}.flookup_calls"),
        **{f"{prefix}.level_s.{chi}": ("whole", f"{prefix}.level.{chi}")
           for chi in levels}}


SOURCES.update(_engine_sources("trengine", TR_LEVELS))
SOURCES.update(_engine_sources("airyengine", AIRY_LEVELS))

BISERIES_OPS = ("__add__", "__sub__", "__neg__", "__mul__", "scale",
                "divide_z1_minus_z2", "from_univariate")


def install(tracer, mods):
    """Wrap every layer boundary; `tracer.restore()` removes them all."""
    scalars, series, store = mods.scalars, mods.series, mods.store
    cli = mods.cli

    for attr in ("__mul__", "__rmul__"):
        tracer.count(scalars.Scalar, attr, "scalars.mul_calls")
    for attr in ("__add__", "__radd__"):
        tracer.count(scalars.Scalar, attr, "scalars.add_calls")
    tracer.count(scalars.Ring, "zero", "scalars.zero_calls")
    tracer.count(scalars.Scalar, "invert", "scalars.invert_calls")

    for attr in ("__mul__", "__rmul__"):
        tracer.span(series.FormalSeries, attr, "series.mul")
    for attr in ("sigma", "derive", "invert"):
        tracer.count(series.FormalSeries, attr, f"series.{attr}_calls")

    for engine in (mods.trengine, mods.airyengine):
        tracer.generator(engine, "iter_partitions", "store.partitions")
    tracer.count(store.CorrTensor, "set", "store.set_calls")

    _install_engine(tracer, "trengine", mods.trengine.TrSolver, cli,
                    "run_tr")
    for attr in ("assemble_QBB_FF", "assemble_QFB"):
        tracer.span(mods.trengine.TrSolver, attr, "trengine.assemble")
    for attr in ("extract_bosonic", "extract_fermionic"):
        tracer.span(mods.trengine.KernelWeights, attr, "trengine.extract")

    airy = mods.airyengine
    _install_engine(tracer, "airyengine", airy.AirySolver, cli, "run_airy")
    for attr in ("xi2_bb", "xi2_ff", "xi2_bf"):
        tracer.span(airy.AirySolver, attr, "airyengine.xi2")
    for attr in ("solve_bosonic_entry", "solve_fermionic_entry"):
        tracer.span(airy.AirySolver, attr, "airyengine.solve")
    for attr in ("c_bb", "c_ff", "c_bf"):
        tracer.count(airy.ConstraintCoeffs, attr, "airyengine.coeff_calls")

    svir = mods.svir
    for attr in ("_apply_L", "_apply_G"):
        tracer.span(svir, attr, "svir.apply_mode")
    tracer.count(svir.FockPoly, "__init__", "svir.fockpoly_created")
    for attr in ("check_commutator", "check_heisenberg_clifford"):
        tracer.span(cli, attr, "svir.check")
    tracer.span(cli, "check_airy_axioms", "svir.axioms")

    tracer.span(mods.curve.CurveBases, "__init__", "curve.bases")
    tracer.span(mods.zoo, "fit_parameters", "curve.fit")
    tracer.span(cli, "zoo_build", "zoo.build")
    tracer.span(cli, "zoo_validate", "zoo.validate")
    for attr in BISERIES_OPS:
        tracer.span(mods.biseries.BiSeries, attr, "biseries")

    tracer.span(cli, "tensor_document", "cli.document")
    tracer.span(cli, "cache_store", "cli.cache_store")
    loads = tracer.counter("cli.cache_loads")
    hits = tracer.counter("cli.cache_hits")

    def cache_read(result, _args):
        loads[0] += 1
        _add(hits, result is not None)
    tracer.span(cli, "cache_load", "cli.cache_load", after=cache_read)


def _add(cell, amount):
    cell[0] += amount


def _install_engine(tracer, prefix, solver_cls, cli, run_name):
    """Keys, lookups, nonzero entries and one span per level chi.

    A level span opens when the solver asks for the level's keys and
    closes when it asks for the next level's keys or its run ends.
    """
    keys = tracer.counter(f"{prefix}.keys")
    nonzero = tracer.counter(f"{prefix}.nonzero")
    zero_lookups = tracer.counter(f"{prefix}.flookup_zero")
    open_level = [None]

    def close_level():
        if open_level[0] is not None:
            tracer.close(open_level[0])
            open_level[0] = None

    def wrap_level_keys(fn):
        def level_keys(solver, chi):
            close_level()
            open_level[0] = tracer.open(f"{prefix}.level.{chi}")
            out = fn(solver, chi)
            keys[0] += len(out)
            return out
        return level_keys

    def wrap_run(fn):
        def run(solver):
            try:
                return fn(solver)
            finally:
                close_level()
        return run

    tracer.patch(solver_cls, "level_keys", wrap_level_keys)
    tracer.patch(solver_cls, "run", wrap_run)
    tracer.count(solver_cls, "flookup", f"{prefix}.flookup_calls",
                 after=lambda result, _args: _add(zero_lookups, not result))
    tracer.span(cli, run_name, f"{prefix}.run",
                after=lambda tensor, _args: _add(nonzero, len(tensor.entries)))


def metrics(tracer):
    """The values of SOURCES after a traced iteration, by metric name.

    An `_s` metric is the self time of its spans, except level_s.N: a
    level contains every other span of its engine, so it is reported as
    the whole time of level N.
    """
    counts = tracer.counts()
    own = tracer.self_times()
    whole = tracer.total_times()

    def value(kind, *names):
        if kind == "count":
            return sum(counts.get(name, 0) for name in names)
        if kind == "calls":
            return sum(tracer.span_count(name) for name in names)
        if kind == "self":
            return own.get(names[0], 0.0)
        if kind == "whole":
            return whole.get(names[0], 0.0)
        num, den = (counts.get(name, 0) for name in names)
        return num / den if den else 0.0
    return {name: value(*source) for name, source in SOURCES.items()}
