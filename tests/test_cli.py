"""Command-line harness tests.

The entry point is exercised in-process: exit codes, byte-determinism of
result files, the cache layer (hits, eviction of corrupt entries, bypass),
round-trip of result documents, and the failure paths for bad specs,
insufficient truncation, and engine mismatch.
"""

import gc
import hashlib
import json
import os
import re
import subprocess
import sys
import weakref
from collections import Counter

import pytest

import superrec
from superrec import cli, svir
from superrec.airyengine import run_airy, run_bosonic
from superrec.cli import (EXIT_INTERNAL, EXIT_MISMATCH, EXIT_PARSE,
                          EXIT_TRUNCATION, build_curve, canonical_bytes,
                          document_entries, load_spec_document, main)
from superrec.scalars import Ring
from superrec.series import TruncationError
from superrec.trengine import BothRoutesDisagree, TrSolver, run_tr
from superrec.zoo import ZooSpec, zoo_build

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


# exact rationals only: a decimal or a zero denominator in a symbol square,
# a coefficient (rational or symbolic), a zoo weight or a zoo parameter, as
# a string or a JSON number
DECIMAL_SPECS = (
    [dict(EXPLICIT_SPEC, symbols=[{"name": "s", "square": square}])
     for square in ("0.5", 1e-1, "1/0")]
    + [dict(EXPLICIT_SPEC, tau={"3": "1/0"}),
       dict(EXPLICIT_SPEC, phi={"1,1": "0/0"}),
       dict(EXPLICIT_SPEC, tau={"3": "1", "5": "-2/0*s"})]
    + [{"zoo": {"name": "ramond", "M_coeffs": [coeff]}, "trunc": 12}
       for coeff in ("0.5", 1.5, "1e-1")]
    + [{"zoo": {"name": "super_jt", "params": {"t": value}}, "trunc": 12}
       for value in ("0.5", 1.5)])

# a tau_epsilon with no inverse in the spec's ring: a free symbol, a sum
# with a free symbol, and a zero divisor under s^2 = 4
NOT_INVERTIBLE_SPECS = (
    [dict(EXPLICIT_SPEC, symbols=[{"name": "t"}], tau={"3": tau}, psi0={})
     for tau in ("t", "1+t")]
    + [dict(EXPLICIT_SPEC, symbols=[{"name": "s", "square": "4"}],
            tau={"3": "s-2"})])

# literals that read no symbol, so that a spec's symbols can be anything
NO_SYMBOL_SPEC = dict(EXPLICIT_SPEC, tau={"3": "1"}, psi0={"1": "2"})

# a symbol name no literal can read: not a JSON string (alone, and beside
# a string name it cannot be sorted with), or not an identifier
UNNAMEABLE_SPECS = [dict(NO_SYMBOL_SPEC, symbols=symbols) for symbols in (
    [{"name": 5}, {"name": "t"}], [{"name": 5}], [{"name": "2t"}])]

# a coefficient that is neither a literal string nor a JSON integer, which
# is never coerced to a string, not even beside a symbol of its name
NOT_LITERAL_SPECS = [
    dict(NO_SYMBOL_SPEC, tau={"3": "1", "5": True}),
    dict(NO_SYMBOL_SPEC, symbols=[{"name": "True"}],
         tau={"3": "1", "5": True}),
    dict(NO_SYMBOL_SPEC, symbols=[{"name": "None"}], phi={"1,1": None}),
    dict(NO_SYMBOL_SPEC, psiA={"1,2": 0.5}),
    dict(NO_SYMBOL_SPEC, psi0={"1": ["2"]})]

# a misspelt key of the spec, of a zoo reference or of a symbol entry, an
# explicit parameter beside a zoo reference, and a zoo reference or symbol
# entry that is not a JSON object: each used to be ignored or to fail with
# Python's own words; the error names the key or the field
UNKNOWN_KEY_SPECS = [
    ({"epsilon": 3, "tau": {"3": "1"}, "trunc": 24, "psia": {"1,2": "4"}},
     "curve spec has unknown key(s) ['psia']"),
    ({"zoo": {"name": "ramond", "M_coefs": ["3"]}, "trunc": 27},
     "zoo has unknown key(s) ['M_coefs']"),
    (dict(EXPLICIT_SPEC, symbols=[{"name": "s", "sqaure": "2"}]),
     "symbols entry has unknown key(s) ['sqaure']"),
    ({"zoo": {"name": "airy"}, "trunc": 12, "tau": {"3": "1"}},
     "reference has unknown key(s) ['tau']"),
    ({"zoo": "ramond", "trunc": 27},
     "zoo must be a JSON object, got 'ramond'"),
    (dict(EXPLICIT_SPEC, symbols=["s"]),
     "symbols entry must be a JSON object, got 's'")]

# a symbol entry or a zoo reference without its name: the error names the
# field and the key, not only the key
MISSING_KEY_SPECS = [
    (dict(EXPLICIT_SPEC, symbols=[{"square": "2"}]),
     "symbols entry is missing key 'name'"),
    ({"zoo": {}, "trunc": 12}, "zoo is missing key 'name'")]


def test_parse_errors(tmp_path, monkeypatch, capsys):
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
    # wrong JSON types: never coerced, never an internal error
    wrong = [dict(EXPLICIT_SPEC, **{key: []})
             for key in ("tau", "phi", "psi0", "psiA", "symbols")]
    wrong += [dict(EXPLICIT_SPEC, trunc=12.7),
              dict(EXPLICIT_SPEC, epsilon=3.9),
              dict(EXPLICIT_SPEC, epsilon=True),
              dict(EXPLICIT_SPEC, trunc="20.0"),
              {"zoo": {"name": "airy", "params": []}, "trunc": 12},
              {"zoo": {"name": "ramond", "M_coeffs": "12"}, "trunc": 12},
              {"zoo": {"name": "airy"}, "trunc": 12.7}]
    wrong += DECIMAL_SPECS + NOT_INVERTIBLE_SPECS
    wrong += UNNAMEABLE_SPECS + NOT_LITERAL_SPECS
    wrong += [doc for doc, _ in UNKNOWN_KEY_SPECS + MISSING_KEY_SPECS]
    capsys.readouterr()
    for doc in wrong:
        spec = write_spec(tmp_path, doc, "w.json")
        assert main(["compute", "--curve", spec, "--chi-max", "3",
                     "--no-cache"]) == EXIT_PARSE, doc
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
    # the error names the symbol, or the field and the index
    named = list(zip(UNNAMEABLE_SPECS + NOT_LITERAL_SPECS[:3],
                     ("name 5", "name 5", "name '2t'", "tau value at "
                      "index '5'", "tau value at index '5'",
                      "phi value at index '1,1'")))
    for doc, words in named + UNKNOWN_KEY_SPECS + MISSING_KEY_SPECS:
        main(["compute", "--curve", write_spec(tmp_path, doc, "w.json"),
              "--chi-max", "3", "--no-cache"])
        assert words in capsys.readouterr().err, (doc, words)
    # JSON integers and integer strings are both accepted, and a JSON
    # integer coefficient reads as its string
    doc = dict(EXPLICIT_SPEC, epsilon="3", trunc="20")
    assert main(["compute", "--curve", write_spec(tmp_path, doc, "i.json"),
                 "--chi-max", "3", "--no-cache"]) == 0
    assert build_curve(dict(EXPLICIT_SPEC, tau={"3": 1, "5": "1/2*s"}))[1] \
        == build_curve(EXPLICIT_SPEC)[1]
    # a result file whose entries lack fields
    result = tmp_path / "r.json"
    result.write_text(json.dumps({"entries": [{"g": 1}]}))
    assert main(["export", "--result", str(result), "--out",
                 str(tmp_path / "r.csv")]) == EXIT_PARSE
    assert not (tmp_path / "r.csv").exists()
    # a failed write: an output path in a missing directory, one naming a
    # directory, and a cache directory naming a file; each is one error
    # line and leaves no temporary file behind
    capsys.readouterr()
    (tmp_path / "d").mkdir()
    (tmp_path / "f").write_text("")
    compute = ["compute", "--curve", "airy", "--chi-max", "3"]
    for out in (tmp_path / "missing" / "r.json", tmp_path / "d"):
        assert main(compute + ["--out", str(out)]) == EXIT_PARSE, out
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}: ") \
            and err.count("\n") == 1, err
    monkeypatch.setenv("SUPERREC_CACHE_DIR", str(tmp_path / "f"))
    assert main(compute + ["--no-cache"]) == EXIT_PARSE
    out, err = capsys.readouterr()
    assert err.startswith(f"error: cannot write {tmp_path / 'f'}: ") \
        and err.count("\n") == 1, err
    # the result is written out before the store that fails
    curve, canonical = build_curve(load_spec_document("airy", 3))
    assert out.encode("utf-8") == canonical_bytes(cli.engine_document(
        curve, cli.curve_hash(canonical), 3, "tr"))
    assert not list(tmp_path.rglob("*.tmp"))
    assert os.listdir(tmp_path / "d") == []


# each zoo curve at every truncation too small to hold its leading dilaton
# coefficient, down to -1
ZOO_TOO_SHALLOW = [(name, trunc) for name, least in (
    ("airy", 2), ("bessel", 0), ("phi11", 2), ("super_jt", 0),
    ("ns_plus", 2), ("ns_minus", 2), ("ramond", 2))
    for trunc in range(-1, least)]


def test_zoo_truncation_too_shallow(tmp_path):
    for name, trunc in ZOO_TOO_SHALLOW:
        spec = write_spec(tmp_path, {"zoo": {"name": name}, "trunc": trunc})
        for command in (["verify-curve"], ["compute", "--chi-max", "3"]):
            assert main(command + ["--curve", spec]) == EXIT_PARSE, \
                (name, trunc, command)
    spec = write_spec(tmp_path, {"zoo": {"name": "super_jt"}, "trunc": 0})
    with pytest.warns(UserWarning, match="cosine one-form"):
        assert main(["verify-curve", "--curve", spec]) == 0


def test_spec_errors_under_optimized_python(tmp_path):
    # the fitted curves fail an assert below trunc 0, which `python -O`
    # strips; every case must be rejected before it is reached
    src = os.path.dirname(os.path.dirname(os.path.abspath(superrec.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    docs = [{"zoo": {"name": name}, "trunc": trunc}
            for name, trunc in ZOO_TOO_SHALLOW
            if trunc == -1 or name == "ramond"]
    docs += [dict(EXPLICIT_SPEC, trunc=12.7), dict(EXPLICIT_SPEC, tau=[])]
    docs += DECIMAL_SPECS + NOT_INVERTIBLE_SPECS
    docs += UNNAMEABLE_SPECS + NOT_LITERAL_SPECS
    docs += [doc for doc, _ in UNKNOWN_KEY_SPECS + MISSING_KEY_SPECS]
    commands = [["verify-curve", "--curve", write_spec(tmp_path, doc,
                                                       f"o{i}.json")]
                for i, doc in enumerate(docs)]
    result = write_spec(tmp_path, {"entries": [{"g": 1}]}, "r.json")
    commands.append(["export", "--result", result, "--out",
                     str(tmp_path / "r.csv")])
    for command in commands:
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "superrec.cli"] + command,
            env=env, capture_output=True, text=True)
        assert proc.returncode == EXIT_PARSE, (command, proc.stderr)


# a zoo parameter the curve does not read: phi11 reads only t, and the other
# names read none
UNREAD_PARAM_SPECS = [({"zoo": {"name": "phi11", "params": {"tt": "5"}},
                        "trunc": 12}, "'tt'"),
                      ({"zoo": {"name": "airy", "params": {"t": "5"}},
                        "trunc": 12}, "'t'")]


def test_unread_zoo_params_rejected(tmp_path, capsys):
    src = os.path.dirname(os.path.dirname(os.path.abspath(superrec.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    for doc, key in UNREAD_PARAM_SPECS:
        spec = write_spec(tmp_path, doc)
        command = ["compute", "--curve", spec, "--chi-max", "4",
                   "--no-cache"]
        assert main(command) == EXIT_PARSE, doc
        assert f"reads no parameter {key}" in capsys.readouterr().err
        # the check must not be an assert, which `python -O` strips
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "superrec.cli"] + command,
            env=env, capture_output=True, text=True)
        assert proc.returncode == EXIT_PARSE, (doc, proc.stderr)
        assert f"reads no parameter {key}" in proc.stderr


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


# sha256 of the result documents at chi_max 5, recorded before the
# partition-table and distinct-split assembly (phi11(t)) and before the
# assemblies were written once over their slot-kind pairs (the psi curve);
# a refactor of either engine must leave these bytes unchanged. phi11(t)
# has no fermionic polarization, so the psi curve is the one that
# exercises the regular parts of the odd basis series.
PHI11_T_SPEC = {"epsilon": 3, "symbols": [{"name": "t"}], "tau": {"3": "1"},
                "phi": {"1,1": "t"}, "trunc": 24}
PSI_SPEC = {"epsilon": 3, "tau": {"3": "1", "4": "1/2", "5": "2/3"},
            "phi": {"1,1": "1/2", "1,2": "-3", "2,2": "1/5"},
            "psi0": {"1": "2", "2": "-1/3"},
            "psiA": {"1,2": "1/7", "2,3": "4"}, "trunc": 30}
RAMOND_SPEC = {"zoo": {"name": "ramond", "M_coeffs": ["1"], "params": {}},
               "trunc": 27}
SUPER_JT_SPEC = {"zoo": {"name": "super_jt", "M_coeffs": ["1"],
                         "params": {}}, "trunc": 12}
BESSEL_SPEC = {"zoo": {"name": "bessel", "M_coeffs": ["1"], "params": {}},
               "trunc": 12}
PINNED_CHI5_SHA256 = [
    ("tr", PHI11_T_SPEC,
     "c4aabe5c7cb82825130f722e0d55a242e6ba4f6ac1265c33c086772b6d72e6ec"),
    ("airy", PHI11_T_SPEC,
     "e3333b439f025ba88e9fada1a86e3d551b1ca546e9e53a3646f91cd92d412538"),
    ("tr", PSI_SPEC,
     "a85f2b8511d0d6c94595f0c11f38cbeadc8bdbe695f97500ffed36025653e350"),
    ("airy", PSI_SPEC,
     "a3e1b9167701d60c6638fab81bb7b29783fd2268cc043c64c25662bff0c3011f"),
    # recorded before the residue assembly was cut at the kernel's top
    # exponent and before the zoo fitted by exact division
    ("tr", RAMOND_SPEC,
     "ae4eefb4b4fe7782c213dba3df6a503d17c62252e5ca9c76c28f758fd82a5fd7"),
    ("airy", RAMOND_SPEC,
     "ca54a924d69fa9184b6a710b08000002f7d38555fe7516ffa6f32eb92c5134ff"),
]


# the benchmark's cold compute (residue-deep), recorded before the
# residue assembly read its factors as int rows
PINNED_SHA256 = [(engine, spec, 5, sha256)
                 for engine, spec, sha256 in PINNED_CHI5_SHA256] + [
    ("tr", PHI11_T_SPEC, 7,
     "afc325ad738cfbcb2dbf80a3fcedf88d0b18146486488e5805f47eb8262dc5ee"),
    # crosscheck-fitted's depth, and the psi curve at a depth whose psi0
    # and psiA reach the fermionic single-F rows; recorded before the
    # single-F terms read sector slices and the quadratic terms multiplied
    # raw inner sums
    ("airy", RAMOND_SPEC, 6,
     "0a526603df7d83d8b84373ba46c2988fb6470346578feb2bf8dedc27ecb7aca3"),
    ("airy", PSI_SPEC, 7,
     "5ed2526f68b1fc09b565a49f477bae2d7b9b82ee2858da1d0f6a3996acc8f0a7"),
    # the residue engine where 1/delta-omega is more than a shift: 13
    # coefficients on ramond, and the psi curve's tau_4 and tau_5; recorded
    # before the kernel division multiplied raw sums
    ("tr", RAMOND_SPEC, 6,
     "665cae7e6e3a20e27be46f93d31b004fd7621bd91d7f55e7c94a5dd5f4538da1"),
    ("tr", PSI_SPEC, 7,
     "e855effe3c7ef03702cb06a328b0188f0d2e8f26738388178dc4abe70a68d081"),
    # the residue engine on the epsilon-1 curves, where the kernel's top
    # exponent is -2: super_jt (38 entries) and bessel (37); recorded
    # before the factor rows dropped their weight fields
    ("tr", SUPER_JT_SPEC, 8,
     "cfa9d33bde08511db99c1af6d32364280d10b4cd67e5aa660175dfa8e6c3d1e5"),
    ("tr", BESSEL_SPEC, 9,
     "7ad5cce8cf82492cf9666619067e6d39e3306cc06e58998b804d529a94d07bee")]


@pytest.mark.filterwarnings("ignore:the cosine one-form")
@pytest.mark.parametrize(
    "engine, spec, chi_max, sha256", PINNED_SHA256,
    ids=["tr", "airy", "psi-tr", "psi-airy", "ramond-tr", "ramond-airy",
         "tr-chi7", "ramond-airy-chi6", "psi-airy-chi7", "ramond-tr-chi6",
         "psi-tr-chi7", "super-jt-tr-chi8", "bessel-tr-chi9"])
def test_result_bytes_are_pinned(tmp_path, engine, spec, chi_max, sha256):
    out = tmp_path / "r.json"
    assert main(["compute", "--engine", engine, "--chi-max", str(chi_max),
                 "--curve", write_spec(tmp_path, spec),
                 "--no-cache", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


# sha256 of the canonical bytes of the bosonic-only result documents at
# chi_max 7, recorded before the two constraint solves were written as one;
# this path alone halves the central constant and drops the C^ff sums
PINNED_BOSONIC_CHI7_SHA256 = [
    (PHI11_T_SPEC,
     "300ff8fed5df742c9d8a32a7e8bf98d684ca43ec58e66ad36626cad1df4d6c7a"),
    (PSI_SPEC,
     "fd25aa1827cd899efead84f7d6207b1cbc3462bae258c108b74eb44fe7667b85"),
]


@pytest.mark.parametrize("spec, sha256", PINNED_BOSONIC_CHI7_SHA256,
                         ids=["bosonic", "psi-bosonic"])
def test_bosonic_result_bytes_are_pinned(spec, sha256):
    curve, canonical = build_curve(spec)
    doc = cli.tensor_document(run_bosonic(curve, 7), cli.curve_hash(canonical),
                              7, "bosonic")
    assert hashlib.sha256(canonical_bytes(doc)).hexdigest() == sha256


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


def test_cache_entry_with_an_edited_payload_is_evicted(tmp_path, monkeypatch):
    # a payload whose value was edited and whose sha256 was left as it was
    # is a digest mismatch: the entry is evicted, never served
    out = tmp_path / "r.json"
    args = ["compute", "--curve", "airy", "--chi-max", "4", "--out",
            str(out)]
    assert main(args) == 0
    first = out.read_bytes()
    [entry] = (tmp_path / "cache").iterdir()
    # the stored wrapper, assembled around the result's bytes, is the
    # canonical encoding of the wrapper document
    assert entry.read_bytes() == canonical_bytes(
        {"payload": json.loads(first), "code": cli.code_digest(),
         "sha256": hashlib.sha256(first).hexdigest()})
    wrapper = json.loads(entry.read_text())
    payload = wrapper["payload"]
    assert payload["entries"][0]["value"] != "7"
    payload["entries"][0]["value"] = "7"
    entry.write_bytes(canonical_bytes(wrapper))
    assert cli.cache_load(payload["curve_hash"], 4, "tr") is None
    assert not entry.exists()

    entry.write_bytes(canonical_bytes(wrapper))
    runs = []

    def counted(curve, chi_max):
        runs.append(chi_max)
        return run_tr(curve, chi_max)
    monkeypatch.setattr("superrec.cli.run_tr", counted)
    assert main(args) == 0
    assert runs == [4]
    assert out.read_bytes() == first
    assert json.loads(entry.read_text())["sha256"] == \
        hashlib.sha256(first).hexdigest()


def test_cache_entry_under_another_key_is_evicted(tmp_path, monkeypatch):
    # a valid entry copied to the file name of another key (here the same
    # curve and chi_max under the other engine) is a key mismatch: the
    # entry is evicted and the other key's result recomputed
    args = ["compute", "--curve", "airy", "--chi-max", "4", "--out"]
    assert main(args + [str(tmp_path / "tr.json")]) == 0
    [entry] = (tmp_path / "cache").iterdir()
    digest = json.loads(entry.read_text())["payload"]["curve_hash"]
    moved = entry.with_name(f"{digest}-4-airy.json")
    moved.write_bytes(entry.read_bytes())
    assert cli.cache_load(digest, 4, "airy") is None
    assert not moved.exists() and entry.exists()

    moved.write_bytes(entry.read_bytes())
    runs = []

    def counted(curve, chi_max):
        runs.append(chi_max)
        return run_airy(curve, chi_max)
    monkeypatch.setattr("superrec.cli.run_airy", counted)
    out = tmp_path / "airy.json"
    assert main(args + [str(out), "--engine", "airy"]) == 0
    assert runs == [4]
    assert json.loads(out.read_text())["engine"] == "airy"
    assert json.loads(moved.read_text())["payload"]["engine"] == "airy"
    assert main(args + [str(tmp_path / "again.json"), "--engine", "airy"]) \
        == 0
    assert runs == [4]
    assert (tmp_path / "again.json").read_bytes() == out.read_bytes()


def test_no_cache_overwrites_a_differing_entry(tmp_path, monkeypatch,
                                               capsys):
    # a self-consistent entry (fresh sha256, current code) with another
    # value is served until --no-cache recomputes it, warns and overwrites
    # it; the cache then serves the recomputed bytes
    out = tmp_path / "r.json"
    args = ["compute", "--curve", "airy", "--chi-max", "4", "--out",
            str(out)]
    assert main(args) == 0
    first = out.read_bytes()
    [entry] = (tmp_path / "cache").iterdir()
    payload = json.loads(entry.read_text())["payload"]
    payload["entries"][0]["value"] = "7"
    entry.write_bytes(canonical_bytes(
        {"payload": payload, "code": cli.code_digest(),
         "sha256": hashlib.sha256(canonical_bytes(payload)).hexdigest()}))
    assert main(args) == 0
    assert out.read_bytes() == canonical_bytes(payload) != first
    capsys.readouterr()

    assert main(args + ["--no-cache"]) == 0
    assert capsys.readouterr().err == (
        "warning: recomputed result differs from the cached copy; "
        "overwriting\n")
    assert out.read_bytes() == first

    def boom(curve, chi_max):
        raise AssertionError("engine must not run on a cache hit")
    monkeypatch.setattr("superrec.cli.run_tr", boom)
    assert main(args) == 0
    assert out.read_bytes() == first
    assert capsys.readouterr().err == ""


def test_internal_error_prints_its_traceback(monkeypatch, capsys):
    def broken(_args):
        raise RuntimeError("deliberate fault")
    monkeypatch.setattr(cli, "cmd_list_curves", broken)
    assert main(["list-curves"]) == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert "internal error: RuntimeError: deliberate fault" in err
    assert "Traceback (most recent call last)" in err
    assert "in broken" in err


def test_route_disagreement_names_its_entry(monkeypatch, capsys):
    # the residue engine solves each entry with both slot kinds on both
    # routes; a fermionic route that is off on one such nonzero entry must
    # stop the run with the entry's key, and the CLI report it as an
    # internal error with its traceback
    key = (0, (1,), (0, 2))
    honest = TrSolver.fermionic_value

    def skewed(self, g, J, fer):
        val = honest(self, g, J, fer)
        return val + self.ring.one() if (g, J, fer) == key else val
    monkeypatch.setattr(TrSolver, "fermionic_value", skewed)
    curve = zoo_build(ZooSpec("airy", trunc=20))
    with pytest.raises(BothRoutesDisagree,
                       match=re.escape("g=0, (1,)|(0, 2)")):
        run_tr(curve, 4)
    assert main(["compute", "--curve", "airy", "--chi-max", "4",
                 "--engine", "tr"]) == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert "Traceback (most recent call last)" in err
    assert "internal error: BothRoutesDisagree: entry g=0, (1,)|(0, 2)" \
        in err


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


def test_crosscheck_reaches_chi_8_on_a_fitted_curve(tmp_path, monkeypatch,
                                                    capsys):
    """Both engines agree through chi 8 on the fitted ramond curve: the
    index simplex keeps this depth within a tier-1 run. Trunc 39 is
    zoo_truncation(8); the tensor is the same at trunc 31, 35, 39 and 45."""
    tensors = []

    def kept(curve, chi_max):
        tensors.append(run_tr(curve, chi_max))
        return tensors[-1]
    monkeypatch.setattr(cli, "run_tr", kept)
    spec = write_spec(tmp_path, {"zoo": {"name": "ramond", "M_coeffs": ["1"],
                                         "params": {}}, "trunc": 39})
    assert main(["crosscheck", "--chi-max", "8", "--curve", spec]) == 0
    assert capsys.readouterr().out.startswith("crosscheck ok: 740 entries,")
    [tensor] = tensors
    assert tensor.get(3, (1, 1), ()).literal() == "3635593/67108864"
    assert not tensor.get(3, (), (0, 2))


def test_crosscheck_reaches_chi_9_on_a_fitted_curve(tmp_path, monkeypatch,
                                                    capsys):
    """Trunc 45 is zoo_truncation(9); the sha256 of the residue engine's
    sorted entries was recorded before the assembly cut and the fit by
    exact division."""
    tensors = []

    def kept(curve, chi_max):
        tensors.append(run_tr(curve, chi_max))
        return tensors[-1]
    monkeypatch.setattr(cli, "run_tr", kept)
    spec = write_spec(tmp_path, dict(RAMOND_SPEC, trunc=45))
    assert main(["crosscheck", "--chi-max", "9", "--curve", spec]) == 0
    assert capsys.readouterr().out.startswith("crosscheck ok: 1575 entries,")
    [tensor] = tensors
    entries = sorted((key, val.literal())
                     for key, val in tensor.entries.items())
    assert hashlib.sha256(repr(entries).encode()).hexdigest() == \
        "924283401a2e2cfc2347651af2d32fab0161de5408535662d59147b7166a4acf"


def test_crosscheck_reaches_chi_10_at_the_required_truncation(tmp_path,
                                                               capsys):
    # trunc 29 is required_truncation(3, 10); at this depth many entries
    # repeat a bosonic index, so each split multiplicity is exercised
    spec = write_spec(tmp_path, {"zoo": {"name": "phi11"}, "trunc": 29})
    assert main(["crosscheck", "--chi-max", "10", "--curve", spec]) == 0
    assert capsys.readouterr().out.startswith("crosscheck ok: 3176 entries,")


@pytest.mark.filterwarnings("ignore:the cosine one-form")
def test_depth_refusals_match_the_python_api(tmp_path, capsys):
    # compute and crosscheck print the message the engines raise
    for name, trunc, chi_max in (("super_jt", 3, 7), ("ns_plus", 22, 6)):
        doc = {"zoo": {"name": name}, "trunc": trunc}
        curve, _ = build_curve(doc)
        with pytest.raises(TruncationError) as raised:
            run_tr(curve, chi_max)
        spec = write_spec(tmp_path, doc)
        for command in ("compute", "crosscheck"):
            assert main([command, "--chi-max", str(chi_max), "--curve",
                         spec]) == EXIT_TRUNCATION
            assert capsys.readouterr().err == f"error: {raised.value}\n"


def exits_plain_and_optimized(command):
    """(exit code, last stderr line) of a command run plain and under
    `python -O`."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(superrec.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    runs = [subprocess.run(
        [sys.executable] + flags + ["-m", "superrec.cli"] + command,
        env=env, capture_output=True, text=True) for flags in ([], ["-O"])]
    return [(run.returncode, run.stderr.strip().splitlines()[-1:])
            for run in runs]


@pytest.mark.parametrize("name,trunc,chi_max,needed", [
    ("ramond", 17, 6, 27), ("ns_plus", 30, 7, 33), ("ramond", 27, 8, 39)])
def test_fitted_curve_too_shallow_for_chi_max(tmp_path, name, trunc,
                                              chi_max, needed):
    # such a fit misses polarization entries both engines read alike, so
    # they would agree on a wrong tensor. A fit at trunc resolves indices
    # through (trunc - 1) // 2 - 1, so needed = 2 * read + 3 is the least
    # trunc that resolves the largest index read at chi_max.
    spec = write_spec(tmp_path, {"zoo": {"name": name}, "trunc": trunc})
    read = (needed - 3) // 2
    message = [f"error: chi_max={chi_max} reads polarization indices up to "
               f"{read}, but the curve data at trunc {trunc} resolves them "
               f"only through {(trunc - 1) // 2 - 1}"]
    for command in ("compute", "crosscheck"):
        assert exits_plain_and_optimized(
            [command, "--chi-max", str(chi_max), "--curve", spec]) \
            == [(EXIT_TRUNCATION, message)] * 2, command


def test_verify_algebra(capsys):
    assert main(["verify-algebra", "--degree", "2", "--mode-range", "1"]) \
        == 0
    assert capsys.readouterr().out.count("pass") == 7
    assert main(["verify-algebra", "--degree", "2", "--mode-range", "1",
                 "--corrupt-operator"]) == EXIT_MISMATCH
    assert "FAIL" in capsys.readouterr().out


def test_verify_algebra_corrupt_operator_reports_closure_failures(capsys):
    # the asymmetric polarization table breaks exactly these closures
    assert main(["verify-algebra", "--degree", "4", "--mode-range", "2",
                 "--corrupt-operator"]) == EXIT_MISMATCH
    details = [line.strip() for line in capsys.readouterr().out.splitlines()
               if line.startswith("  ")]
    assert details == ["closure-LG at (1, 1): mismatch",
                       "closure-LL at (1, 2): mismatch",
                       "closure-LL at (2, 1): mismatch"]


# exit code and sha256 of the standard output of verify-algebra --degree 4
# --mode-range 2, plain and with --corrupt-operator
PINNED_VERIFY_ALGEBRA = [
    ((), 0,
     "2239bf18172374b0a3aa5f0e8b9026e2a8915116628c0547e161431a6a6be141"),
    (("--corrupt-operator",), EXIT_MISMATCH,
     "fdb5dca831e37c43d5594c336c9dffc9cd6a791c696b358b20787c83a9ebe239"),
]


@pytest.mark.parametrize("extra, code, sha256", PINNED_VERIFY_ALGEBRA,
                         ids=["plain", "corrupt"])
def test_verify_algebra_output_is_pinned(capsys, extra, code, sha256):
    assert main(["verify-algebra", "--degree", "4", "--mode-range", "2",
                 *extra]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def test_verify_algebra_fills_its_mode_tables_afresh(monkeypatch, capsys):
    # the mode tables live on the command's ring and shift data, so each
    # entry is filled once per run, and a second run in the same process
    # fills as many again: a table that outlived the command would leave
    # the second run less to fill. Every entry is stored, the closure
    # bilinears and the identity included: no sample keeps an image, so the
    # closure-bilinear entry of a monomial is what [L_n, L_m] and every
    # other closure of the same n + m share.
    runs = []
    held = []  # keeps each table alive, so that its id stays its own

    def tabulate(ring, mode, bos, fer, inner=svir._tabulate):
        kind, label, shift = mode
        table = (ring if shift is None else shift).mode_table
        held.append(table)
        runs[-1][(kind, label, bos, fer, id(table))] += 1
        return inner(ring, mode, bos, fer)

    monkeypatch.setattr(svir, "_tabulate", tabulate)
    for _ in range(2):
        runs.append(Counter())
        assert main(["verify-algebra", "--degree", "2", "--mode-range",
                     "1"]) == 0
    assert capsys.readouterr().out.count("pass") == 14
    first, second = (sum(fills.values()) for fills in runs)
    assert first == second > 0
    assert {count for fills in runs for count in fills.values()} == {1}
    stored = {key[0] for table in held for key in table}
    assert stored == {"1", "J", "Gamma", "L", "G", "L closure", "G closure"}


def test_verify_algebra_frees_its_ring_without_the_cyclic_collector(
        monkeypatch, capsys):
    # the mode tables live on the command's ring and shift data (whose
    # Scalars hold the ring), so a reference cycle that reaches the ring
    # would keep the tables alive after the command until a collection
    made = []

    def ring(*args, inner=cli.Ring):
        out = inner(*args)
        made.append(weakref.ref(out))
        return out

    monkeypatch.setattr(cli, "Ring", ring)
    gc.disable()
    try:
        assert main(["verify-algebra", "--degree", "2", "--mode-range",
                     "1"]) == 0
        freed = [ref() is None for ref in made]
    finally:
        gc.enable()
    assert capsys.readouterr().out.count("pass") == 7
    assert freed == [True]


# what verify-algebra prints when every [L_n, L_m] closure is broken, as
# recorded when each family ran over all samples before the next family
# started; comm3 now fails on the first sample and is skipped after it
FAILED_LL_CLOSURE = """\
heisenberg-clifford      pass
comm1                    pass
comm2                    pass
comm3                    FAIL
comm4                    pass
comm5                    pass
structure-recombination  FAIL
  closure-LL at (1, 2): mismatch
  closure-LL at (1, 3): mismatch
  closure-LL at (1, 4): mismatch
  closure-LL at (2, 1): mismatch
  closure-LL at (2, 3): mismatch
  closure-LL at (3, 1): mismatch
  closure-LL at (3, 2): mismatch
  closure-LL at (4, 1): mismatch
"""


def test_verify_algebra_reports_each_failing_family(monkeypatch, capsys):
    inner = svir._closure
    monkeypatch.setattr(svir, "_closure", lambda name, n, m, shift=None: (
        *inner(name, n, m, shift)[:4], 0) if name == "LL"
        else inner(name, n, m, shift))
    assert main(["verify-algebra", "--degree", "2", "--mode-range", "1"]) \
        == EXIT_MISMATCH
    out, err = capsys.readouterr()
    assert out == FAILED_LL_CLOSURE
    assert err == "error: failing families: comm3, structure-recombination\n"


def test_verify_algebra_fails_a_wrong_heisenberg_weight(monkeypatch, capsys):
    # the family runs over a <= b only; a weight of |a| hbar delta for
    # [J_a, J_b] is right on every pair a > b and must still fail
    def wrong(a, b, p):
        return svir._holds(p, ("J", a, None), ("J", b, None), False,
                           ("1", 0, None), abs(a) * (a + b == 0))

    samples = list(cli._algebra_monomials(Ring([]), 2, 1))
    assert all(wrong(a, b, p) for a in (-1, 0, 1) for b in (-1, 0, 1)
               if a > b for p in samples)
    monkeypatch.setattr(cli, "check_heisenberg_clifford", wrong)
    assert main(["verify-algebra", "--degree", "2", "--mode-range", "1"]) \
        == EXIT_MISMATCH
    assert capsys.readouterr().out.splitlines()[0] == \
        "heisenberg-clifford      FAIL"


def test_verify_algebra_under_optimized_python():
    # the asserts in svir must not decide anything a run prints
    src = os.path.dirname(os.path.dirname(os.path.abspath(superrec.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    for extra in ([], ["--corrupt-operator"]):
        runs = [subprocess.run(
            [sys.executable] + flags + ["-m", "superrec.cli", "verify-algebra",
                                        "--degree", "2", "--mode-range", "1"]
            + extra, env=env, capture_output=True)
            for flags in ([], ["-O"])]
        plain, optimized = ((run.returncode, run.stdout, run.stderr)
                            for run in runs)
        assert plain == optimized, extra
        assert plain[0] == (EXIT_MISMATCH if extra else 0), plain


def test_verify_curve(tmp_path, capsys):
    assert main(["verify-curve", "--curve", "ns_plus",
                 "--order", "8"]) == 0
    doc = dict(EXPLICIT_SPEC, tau={"3": "1", "4": "1"})
    spec = write_spec(tmp_path, doc)
    assert main(["verify-curve", "--curve", spec]) == EXIT_MISMATCH
    assert "one-form sigma-sum" in capsys.readouterr().out


def test_verify_curve_order_is_checked(tmp_path):
    # at trunc 27 the fit keeps indices below 13, so the sigma-sum is
    # resolved to order 14; an exact curve takes any order
    spec = write_spec(tmp_path, {"zoo": {"name": "ramond"}, "trunc": 27})
    assert main(["verify-curve", "--curve", spec, "--order", "14"]) == 0
    for order, code in (("-2", EXIT_PARSE), ("-1", EXIT_PARSE),
                        ("15", EXIT_TRUNCATION), ("16", EXIT_TRUNCATION)):
        assert main(["verify-curve", "--curve", spec, "--order", order]) \
            == code, order
    assert [code for code, _ in exits_plain_and_optimized(
        ["verify-curve", "--curve", spec, "--order", "-2"])] \
        == [EXIT_PARSE] * 2
    assert exits_plain_and_optimized(
        ["verify-curve", "--curve", spec, "--order", "16"]) \
        == [(EXIT_TRUNCATION, ["error: order 16 past what the fitted tables "
                               "of ramond resolve at trunc 27 (at most "
                               "14)"])] * 2
    exact = write_spec(tmp_path, {"epsilon": 3, "tau": {"3": "1"},
                                  "phi": {"1,1": "1/2"}, "trunc": 20},
                       "exact.json")
    for order in ("0", "30"):
        assert main(["verify-curve", "--curve", exact, "--order", order]) \
            == 0, order
