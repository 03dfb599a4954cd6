"""Tests of the benchmark's own machinery: span arithmetic, wrapper
restoration, the output checks behind error_rate, and BENCHMARK.json."""

import gc
import json
import os
import shutil
import signal
import subprocess
import sys
import types

import pytest

from perfbench import layers, micro, run, speed
from perfbench.tracing import Tracer
from perfbench.workloads import WORKLOADS, Command

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


@pytest.fixture
def fresh_superrec(monkeypatch, tmp_path):
    """Fresh superrec modules for one test; the originals come back after."""
    monkeypatch.setenv("SUPERREC_CACHE_DIR", str(tmp_path / "cache"))
    saved = {name: mod for name, mod in sys.modules.items()
             if name == "superrec" or name.startswith("superrec.")}
    yield run.Modules()
    for name in list(sys.modules):
        if name == "superrec" or name.startswith("superrec."):
            del sys.modules[name]
    sys.modules.update(saved)


def test_self_time_subtracts_direct_children_only():
    tracer = Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 6, 10]))
    root = tracer.open("root")        # 0 .. 10
    outer = tracer.open("child")      # 1 .. 4
    inner = tracer.open("grandchild")  # 2 .. 3
    tracer.close(inner)
    tracer.close(outer)
    second = tracer.open("child")     # 5 .. 6
    tracer.close(second)
    tracer.close(root)
    own = tracer.self_times()
    assert own == {"root": 6.0, "child": 3.0, "grandchild": 1.0}
    assert sum(own.values()) == 10.0
    assert list(tracer.span_parent) == [-1, 0, 1, 0]


def test_close_ends_spans_left_open_inside():
    tracer = Tracer(clock=FakeClock([0, 1, 5, 6]))
    root = tracer.open("root")
    tracer.open("level")
    tracer.close(root)
    assert list(tracer.span_end) == [5, 5]
    with pytest.raises(ValueError):
        tracer.close(root)


def test_generator_resumes_count_against_the_resuming_span():
    module = types.ModuleType("fake")
    original = module.parts = lambda n: iter(range(n))
    tracer = Tracer(clock=FakeClock([0, 1, 3, 4, 5, 10]))
    tracer.generator(module, "parts", "store.partitions")
    outer = tracer.open("outer")           # 0 .. 10
    assert list(module.parts(1)) == [0]    # resumes 1 .. 3 and 4 .. 5
    tracer.close(outer)
    assert tracer.self_times() == {"outer": 7.0, "store.partitions": 3.0}
    assert tracer.counts() == {"store.partitions_calls": 1,
                               "store.partitions_yielded": 1}
    tracer.restore()
    assert module.parts is original


def test_reference_seconds_scale_each_stretch_by_its_probes():
    unit = speed.REFERENCE_PROBE_S
    # stretches 1 .. 3 between probes of 1 s, and 4 .. 10 between 1 s, 2 s
    raw, reference = speed.reference_seconds([(0, 1), (3, 1), (10, 2)])
    assert raw == 8
    assert reference == pytest.approx(2 * unit / 1 + 6 * unit / 1.5)


def test_speed_clock_restores_the_alarm_handler():
    previous = signal.getsignal(signal.SIGALRM)
    with speed.SpeedClock() as clock:
        sum(range(1000))
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert gc.isenabled()
    assert len(clock.probes) == 2 and clock.reference_s > 0


def test_traced_commands_restore_every_wrapper(fresh_superrec, tmp_path):
    mods = fresh_superrec
    tracer = Tracer()
    layers.install(tracer, mods)
    patched = list(tracer.patches)
    assert all(vars(owner)[attr] is not raw
               for owner, attr, raw in patched)
    out = str(tmp_path / "airy.json")
    try:
        code = mods.cli.main(["compute", "--curve", "airy", "--chi-max", "4",
                              "--engine", "both", "--out", out])
        assert mods.cli.main(["verify-algebra", "--degree", "1",
                              "--mode-range", "1"]) == 0
    finally:
        tracer.restore()
    assert code == 0
    assert all(vars(owner)[attr] is raw for owner, attr, raw in patched)
    values = layers.metrics(tracer)
    assert values["trengine.keys"] > values["trengine.nonzero"] > 0
    assert values["airyengine.nonzero"] == values["trengine.nonzero"]
    assert values["airyengine.coeff_calls"] > 0
    assert values["svir.check_calls"] > 0
    assert values["trengine.level_s.4"] > 0
    assert values["scalars.mul_calls"] > 0


def test_wrong_digest_and_nonzero_exit_raise_error_rate(fresh_superrec,
                                                        tmp_path):
    session = run.Session(WORKLOADS["verify"], 0, str(tmp_path))
    session.mods = fresh_superrec
    session.digests = {"verify_algebra": "0" * 64}
    session.check_output("verify_algebra", b"heisenberg-clifford pass\n", {})
    assert session.tally.failed == 1
    assert session.tally.problems == ["verify_algebra output is wrong"]

    session = run.Session(WORKLOADS["verify"], 0, str(tmp_path))
    session.mods = fresh_superrec
    session.commands = [Command("verify_algebra",
                                ["verify-algebra", "--degree", "0"])]
    session.iteration()
    assert "verify_algebra exited 2" in session.tally.problems
    assert session.tally.error_rate > 0


def test_benchmark_json_names_what_the_code_measures():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"] for m in spec["per_layer"]} == (
        set(layers.SOURCES) | set(micro.CASES)
        | {"cli.cache_hit_ratio", "cli.output_bytes", "trace.overhead_s"})


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
