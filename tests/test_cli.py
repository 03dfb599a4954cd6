"""Command-line harness tests.

The entry point is exercised in-process: exit codes, byte-determinism of
result files, the cache layer (hits, eviction of corrupt entries, bypass),
round-trip of result documents, and the failure paths for bad specs,
insufficient truncation, and engine mismatch.
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

import superrec
from superrec import cli
from superrec.cli import (EXIT_INTERNAL, EXIT_MISMATCH, EXIT_PARSE,
                          EXIT_TRUNCATION, build_curve, canonical_bytes,
                          document_entries, load_spec_document, main)
from superrec.trengine import run_tr

EXPLICIT_SPEC = {
    "epsilon": 3,
    "symbols": [{"name": "s", "square": "2"}],
    "tau": {"3": "1", "5": "1/2*s"},
    "phi": {"1,1": "1/2"},
    "psi0": {"1": "s"},
    "psiA": {"1,2": "-1/3"},
    "trunc": 20,
}


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("SUPERREC_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path


def write_spec(tmp_path, doc, name="curve.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_list_curves(capsys):
    assert main(["list-curves"]) == 0
    out = capsys.readouterr().out.split()
    assert out == ["airy", "bessel", "phi11", "super_jt",
                   "ns_plus", "ns_minus", "ramond"]


def test_compute_known_values(tmp_path):
    out = tmp_path / "airy.json"
    assert main(["compute", "--curve", "airy", "--chi-max", "3",
                 "--engine", "both", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    values = {(e["g"], tuple(e["bos"]), tuple(e["fer"])): e["value"]
              for e in doc["entries"]}
    assert values[(0, (1, 1, 1), ())] == "-1"
    # canonical fermionic order (0,2) flips the sign of the (2,0) slot value
    assert values[(0, (1,), (0, 2))] == "1/2"
    assert values[(1, (3,), ())] == "-1/4"
    assert doc["engine"] == "both"


def test_compute_determinism_and_roundtrip(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["compute", "--curve", "bessel", "--chi-max", "4"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2), "--no-cache"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    spec = load_spec_document("bessel", 4)
    curve, _ = build_curve(spec)
    tensor = run_tr(curve, 4)
    assert document_entries(doc, curve.ring) == tensor.entries


def test_explicit_spec_and_csv_export(tmp_path, capsys):
    spec = write_spec(tmp_path, EXPLICIT_SPEC)
    out = tmp_path / "res.json"
    assert main(["compute", "--curve", spec, "--chi-max", "4",
                 "--engine", "both", "--out", str(out), "--csv"]) == 0
    rows = (tmp_path / "res.json.csv").read_text().splitlines()
    assert rows[0] == "g,bos,fer,value"
    assert len(rows) == len(json.loads(out.read_text())["entries"]) + 1
    flat = tmp_path / "flat.csv"
    assert main(["export", "--result", str(out), "--out", str(flat)]) == 0
    assert flat.read_text() == (tmp_path / "res.json.csv").read_text()


def test_parse_errors(tmp_path, capsys):
    assert main(["compute", "--curve", "airy", "--chi-max", "2"]) \
        == EXIT_PARSE
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["compute", "--curve", str(bad)]) == EXIT_PARSE
    assert main(["compute", "--curve", str(tmp_path / "missing.json")]) \
        == EXIT_PARSE
    doc = dict(EXPLICIT_SPEC, tau={"3": "0.5"})
    assert main(["compute", "--curve", write_spec(tmp_path, doc, "d.json")]) \
        == EXIT_PARSE
    doc = dict(EXPLICIT_SPEC)
    doc["zoo"] = {"name": "airy"}
    assert main(["compute", "--curve", write_spec(tmp_path, doc, "e.json")]) \
        == EXIT_PARSE


def test_triangle_shape_errors_under_optimized_python(tmp_path):
    # the triangle checks must not be asserts, which `python -O` strips
    src = os.path.dirname(os.path.dirname(os.path.abspath(superrec.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    for key, index in (("phi", "2,1"), ("phi", "0,1"), ("psiA", "2,1")):
        doc = dict(EXPLICIT_SPEC, **{key: {index: "1"}})
        spec = write_spec(tmp_path, doc, "shape.json")
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "superrec.cli", "compute",
             "--curve", spec, "--chi-max", "3"],
            env=env, capture_output=True, text=True)
        assert proc.returncode == EXIT_PARSE, (key, index, proc.stderr)
        assert "triangle" in proc.stderr


def test_index_past_truncation_under_optimized_python(tmp_path):
    # an index l multiplies z^(l-1), which trunc 24 cannot hold for l > 25;
    # the check must not be an assert, which `python -O` strips
    src = os.path.dirname(os.path.dirname(os.path.abspath(superrec.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    base = {"epsilon": 3, "tau": {"3": "1"}, "trunc": 24}
    for key, params in (("tau", {"3": "1", "40": "1"}), ("phi", {"1,40": "1"}),
                        ("psi0", {"40": "1"}), ("psiA", {"1,26": "1"})):
        spec = write_spec(tmp_path, dict(base, **{key: params}), "past.json")
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "superrec.cli", "compute",
             "--curve", spec, "--chi-max", "3", "--no-cache"],
            env=env, capture_output=True, text=True)
        assert proc.returncode == EXIT_PARSE, (key, proc.stderr)
        assert f"{key} index" in proc.stderr
        assert "past truncation 24" in proc.stderr


# sha256 of the result documents of phi11(t) at chi_max 5, recorded before
# the partition-table and distinct-split assembly; a refactor of either
# engine must leave these bytes unchanged
PHI11_T_SPEC = {"epsilon": 3, "symbols": [{"name": "t"}], "tau": {"3": "1"},
                "phi": {"1,1": "t"}, "trunc": 24}
PHI11_T_CHI5_SHA256 = {
    "tr": "c4aabe5c7cb82825130f722e0d55a242e6ba4f6ac1265c33c086772b6d72e6ec",
    "airy": "e3333b439f025ba88e9fada1a86e3d551b1ca546e9e53a3646f91cd92d412538",
}


@pytest.mark.parametrize("engine", sorted(PHI11_T_CHI5_SHA256))
def test_result_bytes_are_pinned(tmp_path, engine):
    out = tmp_path / "r.json"
    assert main(["compute", "--engine", engine, "--chi-max", "5",
                 "--curve", write_spec(tmp_path, PHI11_T_SPEC),
                 "--no-cache", "--out", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == PHI11_T_CHI5_SHA256[engine]


def test_csv_without_out_is_rejected_before_any_work(tmp_path, monkeypatch,
                                                     capsys):
    def boom(curve, chi_max):
        raise AssertionError("engine must not run")
    monkeypatch.setattr("superrec.cli.run_tr", boom)
    assert main(["compute", "--curve", "airy", "--chi-max", "3",
                 "--csv"]) == EXIT_PARSE
    assert capsys.readouterr().out == ""
    assert not (tmp_path / "cache").exists()


def test_truncation_exit_code(tmp_path):
    doc = dict(EXPLICIT_SPEC, trunc=8)
    spec = write_spec(tmp_path, doc)
    assert main(["compute", "--curve", spec, "--chi-max", "6"]) \
        == EXIT_TRUNCATION


def test_cache_hit_and_corruption(tmp_path, monkeypatch, capsys):
    out = tmp_path / "r.json"
    assert main(["compute", "--curve", "airy", "--chi-max", "4",
                 "--out", str(out)]) == 0
    first = out.read_bytes()
    cache_dir = tmp_path / "cache"
    (entry,) = os.listdir(cache_dir)

    # served from cache: the engine is never invoked on a repeat run
    def boom(curve, chi_max):
        raise AssertionError("engine must not run on a cache hit")
    monkeypatch.setattr("superrec.cli.run_tr", boom)
    assert main(["compute", "--curve", "airy", "--chi-max", "4",
                 "--out", str(out)]) == 0
    assert out.read_bytes() == first
    monkeypatch.undo()
    monkeypatch.setenv("SUPERREC_CACHE_DIR", str(cache_dir))

    # corrupt entries are evicted and recomputed, byte-identically
    (cache_dir / entry).write_text("{\"payload\": \"garbage\"}")
    assert main(["compute", "--curve", "airy", "--chi-max", "4",
                 "--out", str(out)]) == 0
    assert out.read_bytes() == first
    wrapper = json.loads((cache_dir / entry).read_text())
    assert canonical_bytes(wrapper["payload"]) == first


def test_cache_entry_from_other_code_is_a_miss(tmp_path, monkeypatch):
    out = tmp_path / "r.json"
    cache_dir = tmp_path / "cache"
    args = ["compute", "--curve", "airy", "--chi-max", "4", "--out",
            str(out)]
    monkeypatch.setattr(cli, "code_digest", lambda: "0" * 64)
    assert main(args) == 0
    first = out.read_bytes()
    monkeypatch.undo()
    monkeypatch.setenv("SUPERREC_CACHE_DIR", str(cache_dir))

    runs = []

    def counted(curve, chi_max):
        runs.append(chi_max)
        return run_tr(curve, chi_max)
    monkeypatch.setattr("superrec.cli.run_tr", counted)
    assert main(args) == 0
    assert runs == [4]
    assert out.read_bytes() == first
    # the stale entry was evicted and overwritten, not kept beside it
    [entry] = os.listdir(cache_dir)
    wrapper = json.loads((cache_dir / entry).read_text())
    assert wrapper["code"] == cli.code_digest()
    assert main(args) == 0
    assert runs == [4]


def test_internal_error_prints_its_traceback(monkeypatch, capsys):
    def broken(_args):
        raise RuntimeError("deliberate fault")
    monkeypatch.setattr(cli, "cmd_list_curves", broken)
    assert main(["list-curves"]) == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert "internal error: RuntimeError: deliberate fault" in err
    assert "Traceback (most recent call last)" in err
    assert "in broken" in err


def test_engine_mismatch_exit_code(tmp_path, monkeypatch, capsys):
    def skewed(curve, chi_max):
        tensor = run_tr(curve, chi_max)
        key = (0, (1, 1, 1), ())
        tensor.entries[key] = tensor.entries[key] + curve.ring.one()
        return tensor
    monkeypatch.setattr("superrec.cli.run_airy", skewed)
    assert main(["compute", "--curve", "airy", "--chi-max", "3",
                 "--engine", "both"]) == EXIT_MISMATCH
    assert main(["crosscheck", "--curve", "airy", "--chi-max", "3"]) \
        == EXIT_MISMATCH
    err = capsys.readouterr().err
    assert "(0, (1, 1, 1), ())" in err


def test_crosscheck_passes(capsys):
    assert main(["crosscheck", "--curve", "airy", "--chi-max", "4"]) == 0
    assert "crosscheck ok" in capsys.readouterr().out


def test_verify_algebra(capsys):
    assert main(["verify-algebra", "--degree", "2", "--mode-range", "1"]) \
        == 0
    assert capsys.readouterr().out.count("pass") == 7
    assert main(["verify-algebra", "--degree", "2", "--mode-range", "1",
                 "--corrupt-operator"]) == EXIT_MISMATCH
    assert "FAIL" in capsys.readouterr().out


def test_verify_curve(tmp_path, capsys):
    assert main(["verify-curve", "--curve", "ns_plus",
                 "--order", "8"]) == 0
    doc = dict(EXPLICIT_SPEC, tau={"3": "1", "4": "1"})
    spec = write_spec(tmp_path, doc)
    assert main(["verify-curve", "--curve", spec]) == EXIT_MISMATCH
    assert "one-form sigma-sum" in capsys.readouterr().out
