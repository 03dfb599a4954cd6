"""superrec benchmark: end-to-end command timings and a traced layer breakdown.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload residue-deep --seed 1 --seconds 15 \
        --trace 0

The program is imported from `src/` and its commands are driven in-process
through `superrec.cli.main` on spec files generated from the seed. With
`--trace 0` a run times whole workload iterations until `--seconds` have
passed (at least one iteration) and reports the end-to-end metrics. Their
times are reference-speed seconds (see speed.py); the line above the
result gives the raw seconds too.

- wall_s: median time of all the workload's commands in one iteration;
- main_command_s: median time of the workload's main command, the cold
  `compute` (residue-deep), `crosscheck` (crosscheck-fitted) or
  `verify-algebra` (verify);
- setup_s: median over several repeats of a fresh import of the package
  plus parsing the workload's specs and building or fitting their curves;
- peak_rss_mb: peak resident memory of the process after the timed loop.

With `--trace 1` a run times one iteration untraced, then one with every
layer boundary wrapped (see layers.py), runs the layer microbenchmarks and
reports the per-layer metrics. Every command's exit code and output are
checked outside the timed region; error_rate is the share of commands and
checks that failed. The cache is a per-run temporary directory. The last
line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import re
import resource
import shutil
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIGESTS = os.path.join(ROOT, "perfbench", "digests.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
SETUP_SECONDS = 2.0
SETUP_REPEATS = (3, 60)  # fewest and most set-ups timed in one run
CALIBRATION_RUNS = 25
SUBMODULES = ("cli", "scalars", "series", "biseries", "store", "curve",
              "trengine", "airyengine", "svir", "zoo")

if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import layers, micro, speed  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402
from perfbench.workloads import (CROSSCHECK_CHI, DEFAULT_SEED,  # noqa: E402
                                 WORKLOADS)


class Modules:
    """The freshly imported superrec modules, by short name."""

    def __init__(self):
        for name in list(sys.modules):
            if name == "superrec" or name.startswith("superrec."):
                del sys.modules[name]
        for name in SUBMODULES:
            setattr(self, name, importlib.import_module(f"superrec.{name}"))


class Tally:
    """Commands and output checks attempted, and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, ok, problem):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)

    @property
    def error_rate(self):
        return self.failed / self.attempted if self.attempted else 1.0


def environment():
    """Python version, usable cores and the speed probe's median time."""
    runs = []
    for _ in range(CALIBRATION_RUNS):
        start = time.perf_counter()
        speed.probe()
        runs.append(time.perf_counter() - start)
    return {"python": sys.version.split()[0],
            "nproc": len(os.sched_getaffinity(0)),
            "calibration_s": statistics.median(runs)}


def timed_setup(specs):
    """Import the package and build every spec's curve, timed."""
    with speed.SpeedClock() as clock:
        mods = Modules()
        built = {label: mods.cli.build_curve(
            mods.cli.load_spec_document(path))
            for label, path in specs.items()}
    return clock, mods, built


def run_command(cli, command, probed=True):
    """(raw seconds, reference seconds, exit code, output bytes).

    The output is read after timing. Without probes, as in a traced
    iteration, the reference time is the raw time.
    """
    stdout, stderr = io.StringIO(), io.StringIO()
    clock = speed.SpeedClock() if probed else contextlib.nullcontext()
    start = time.perf_counter()
    try:
        with clock, contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = cli.main(command.argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    if probed:
        raw, reference = clock.raw_s, clock.reference_s
    else:
        raw = reference = time.perf_counter() - start
    if command.out is None:
        data = stdout.getvalue().encode("utf-8")
    else:
        try:
            with open(command.out, "rb") as handle:
                data = handle.read()
        except OSError:
            data = b""
    return raw, reference, code, data


def _snapshot(directory):
    """(name, inode, mtime) of every file; a rewrite changes the inode."""
    try:
        entries = sorted(os.scandir(directory), key=lambda e: e.name)
    except FileNotFoundError:
        return ()
    return tuple((e.name, e.inode(), e.stat().st_mtime_ns) for e in entries)


class Session:
    """One workload on one seed: commands, their checks and the cache."""

    def __init__(self, workload, seed, workdir):
        self.workload = workload
        self.seed = seed
        self.cache_dir = os.path.join(workdir, "cache")
        os.environ["SUPERREC_CACHE_DIR"] = self.cache_dir
        self.specs = workload.write_specs(seed, workdir)
        self.commands = workload.commands(self.specs, workdir)
        self.tally = Tally()
        self.first = {}
        with open(DIGESTS, "r", encoding="utf-8") as handle:
            self.digests = json.load(handle)[workload.name]
        self.mods = None
        self.built = None

    def iteration(self, tracer=None):
        """Run every command once; returns (raw and reference seconds by
        label, output bytes, (loads, hits) of the warm compute's cache
        reads). A traced iteration runs no speed probes."""
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        times, total_bytes, warm_cache = {}, 0, None
        outputs = {}
        for command in self.commands:
            warm = command.label == "compute_warm"
            if warm:
                before = _snapshot(self.cache_dir)
                counts = tracer.counts() if tracer else {}
            raw, reference, code, data = run_command(
                self.mods.cli, command, probed=tracer is None)
            times[command.label] = (raw, reference)
            total_bytes += len(data)
            outputs[command.label] = data
            self.tally.check(code == 0, f"{command.label} exited {code}")
            self.check_output(command.label, data, outputs)
            if warm:
                self.tally.check(bool(before)
                                 and _snapshot(self.cache_dir) == before,
                                 "warm compute missed the cache")
                if tracer:
                    after = tracer.counts()
                    warm_cache = tuple(
                        after.get(key, 0) - counts.get(key, 0)
                        for key in ("cli.cache_loads",
                                    "cli.cache_hits"))
        return times, total_bytes, warm_cache

    def check_output(self, label, data, outputs):
        """Digest on the default seed; shape and repeatability always."""
        cli = self.mods.cli
        ok = self.first.setdefault(label, data) == data
        if label == "compute_cold":
            try:
                doc = json.loads(data)
                curve_hash = cli.curve_hash(self.built["phi11"][1])
                ok = ok and doc["curve_hash"] == curve_hash \
                    and doc["chi_max"] == self.workload.chi_max \
                    and doc["engine"] == "tr" and bool(doc["entries"])
            except (ValueError, KeyError, TypeError):
                ok = False
        elif label == "compute_warm":
            ok = ok and data == outputs.get("compute_cold")
        elif label == "crosscheck":
            curve_hash = cli.curve_hash(self.built["ramond"][1])
            ok = ok and re.fullmatch(
                rf"crosscheck ok: \d+ entries, chi_max="
                rf"{self.workload.chi_max}, curve {curve_hash[:12]}\n",
                data.decode("utf-8", "replace")) is not None
        elif label.startswith("verify_curve."):
            curve, canonical = self.built[label.split(".", 1)[1]]
            ok = ok and data.decode("utf-8", "replace") == (
                f"curve ok: {cli.curve_hash(canonical)[:12]} "
                f"(epsilon={curve.epsilon}, trunc={curve.trunc})\n")
        digest = hashlib.sha256(data).hexdigest()
        if self.seed == DEFAULT_SEED or label == "verify_algebra":
            ok = ok and self.digests.get(label) == digest
        self.tally.check(ok, f"{label} output is wrong")

    def engine_check(self):
        """trengine against airyengine entry for entry at chi 5, and the
        timed result's entries up to chi 5 against them; untimed."""
        mods = self.mods
        for label in self.workload.engine_labels(self.specs):
            curve = self.built[label][0]
            tr = mods.trengine.run_tr(curve, CROSSCHECK_CHI).entries
            airy = mods.airyengine.run_airy(curve, CROSSCHECK_CHI).entries
            self.tally.check(tr == airy, f"{label}: engines differ at "
                                         f"chi {CROSSCHECK_CHI}")
            if "compute_cold" in self.first:
                try:
                    doc = json.loads(self.first["compute_cold"])
                    entries = mods.cli.document_entries(doc, curve.ring)
                except (ValueError, KeyError, TypeError):
                    entries = {}
                low = {key: val for key, val in entries.items()
                       if mods.store.CorrTensor.chi(*key) <= CROSSCHECK_CHI}
                self.tally.check(low == airy, f"{label}: result differs "
                                              "from airyengine")


def measure(session, seconds):
    """End-to-end metrics from whole iterations, repeated until `seconds`
    have passed."""
    fewest, most = SETUP_REPEATS
    setups = []
    while len(setups) < fewest or (len(setups) < most and sum(
            clock.raw_s for clock in setups) < SETUP_SECONDS):
        clock, session.mods, session.built = timed_setup(session.specs)
        setups.append(clock)
    samples = []
    start = time.perf_counter()
    while not samples or time.perf_counter() - start < seconds:
        samples.append(session.iteration()[0])
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    labels = [command.label for command in session.commands]

    def median_of(kind):  # 0 raw, 1 reference seconds
        return {label: statistics.median(s[label][kind] for s in samples)
                for label in labels}

    reference = median_of(1)
    report = {"iterations": len(samples),
              "setup_repeats": len(setups),
              "command_s": reference,
              "raw_command_s": median_of(0),
              "raw_setup_s": statistics.median(c.raw_s for c in setups)}
    values = {
        "wall_s": statistics.median(
            sum(t[1] for t in s.values()) for s in samples),
        "setup_s": statistics.median(c.reference_s for c in setups),
        "main_command_s": reference[session.workload.main],
        "peak_rss_mb": peak,
    }
    return values, report


def trace(session):
    """Per-layer metrics from one untraced and one traced iteration."""
    _, session.mods, session.built = timed_setup(session.specs)
    plain = sum(raw for raw, _ in session.iteration()[0].values())
    tracer = Tracer()
    try:
        layers.install(tracer, session.mods)
        times, output_bytes, warm_cache = session.iteration(tracer)
    finally:
        tracer.restore()
    traced = sum(raw for raw, _ in times.values())
    loads, hits = warm_cache or (0, 0)
    values = {**layers.metrics(tracer), **micro.run(session.mods),
              "cli.cache_hit_ratio": hits / loads if loads else 0.0,
              "cli.output_bytes": output_bytes,
              "trace.overhead_s": traced - plain}
    report = {"traced_wall_s": traced, "untraced_wall_s": plain,
              "spans": len(tracer.span_start)}
    return values, report


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "superrec", "cli.py")):
        print(f"error: no superrec sources under {ROOT}/src",
              file=sys.stderr)
        return 2
    src = os.path.join(ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    with open(SPEC, "r", encoding="utf-8") as handle:
        section = json.load(handle)["per_layer" if args.trace
                                    else "end_to_end"]
    env = environment()
    workload = WORKLOADS[args.workload]
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        session = Session(workload, args.seed, workdir)
        if args.trace:
            values, report = trace(session)
        else:
            values, report = measure(session, args.seconds)
        session.engine_check()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    tally = session.tally
    print(json.dumps({"env": env, "workload": workload.name,
                      "seed": args.seed, **report,
                      "error_rate": tally.error_rate,
                      "problems": tally.problems}))
    metrics = {metric["name"]: {"value": values[metric["name"]],
                                "unit": metric["unit"]}
               for metric in section}
    for name, metric in metrics.items():
        print(f"{name:32s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
