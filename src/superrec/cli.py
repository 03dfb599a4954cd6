"""Command-line harness: curve-spec files, engine runs, result files, cache.

Exit codes: 0 success, 2 spec/argument parse error, 3 insufficient
truncation, 4 engine mismatch or verification failure, 5 internal error.
All values in spec and result files are exact string literals (never JSON
numbers), so output bytes are reproducible.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import os
import re
import sys
import tempfile
from fractions import Fraction

from .airyengine import run_airy
from .curve import (AdmissibilityError, CurveData, ShapeError,
                    required_truncation)
from .scalars import Ring, ScalarParseError
from .series import TruncationError
from .store import index_bound
from .svir import (ShiftData, check_airy_axioms, check_commutator,
                   check_heisenberg_clifford)
from .svir import FockPoly
from .trengine import run_tr
from .zoo import (FITTED_NAMES, ZOO_NAMES, ExpansionError, ZooSpec, zoo_build,
                  zoo_validate)

EXIT_PARSE = 2
EXIT_TRUNCATION = 3
EXIT_MISMATCH = 4
EXIT_INTERNAL = 5

CACHE_ENV = "SUPERREC_CACHE_DIR"
CHI_DEFAULT = 6
CHI_WARN = 9


class SpecError(Exception):
    """A curve spec or result file cannot be parsed."""


class MismatchError(Exception):
    """Two computations that must agree do not."""


# --- curve-spec files -------------------------------------------------------


def zoo_truncation(chi_max):
    """Default expansion depth for zoo curves, and the least that compute
    and crosscheck accept for a fitted one: covers the engine needs and
    leaves the fitted curves a polarization rectangle wide enough for the
    largest index reachable at chi_max (the fit recovers polarization
    indices up to (trunc-1)//2 - 1)."""
    return max(2 * index_bound(chi_max, 3) + 3,
               required_truncation(3, chi_max), 12)


def _zoo_document(name, chi_max):
    return {"zoo": {"name": name, "M_coeffs": ["1"], "params": {}},
            "trunc": zoo_truncation(chi_max)}


def load_spec_document(curve_arg, chi_max=CHI_DEFAULT):
    """Spec document from a zoo name or a JSON file path."""
    if curve_arg in ZOO_NAMES:
        return _zoo_document(curve_arg, chi_max)
    try:
        with open(curve_arg, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise SpecError(f"cannot read curve spec: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecError(f"curve spec is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SpecError("curve spec must be a JSON object")
    return doc


def _field(doc, key, kind, default=None):
    """doc[key] (default when absent), which must be a JSON object, array
    or integer (an integer string counts) by kind; any other JSON type is
    a spec error, never coerced."""
    value = doc.get(key, default)
    if kind is int and isinstance(value, str):
        try:
            value = int(value)
        except ValueError:
            pass
    if not isinstance(value, kind) or isinstance(value, bool):
        name = {dict: "object", list: "array", int: "integer"}[kind]
        raise SpecError(f"{key} must be a JSON {name}, got {value!r}")
    return value


_RATIONAL = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def _rational(value, what):
    """An exact rational from a JSON integer or an "a" or "a/b" string;
    decimals, JSON floats and a zero denominator are spec errors."""
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str) and _RATIONAL.fullmatch(value.strip()):
        try:
            return Fraction(value.strip())
        except ZeroDivisionError:
            pass
    raise SpecError(f"{what} must be an integer or an a/b rational with "
                    f"b != 0, got {value!r}")


def _parse_indexed(ring, mapping, pair, what):
    out = {}
    for key, literal in mapping.items():
        try:
            if pair:
                k, l = (int(part) for part in key.split(","))
                index = (k, l)
            else:
                index = int(key)
        except ValueError as exc:
            raise SpecError(f"bad {what} index {key!r}") from exc
        out[index] = ring.parse(str(literal))
    return out


def build_curve(doc):
    """(CurveData, canonical document) from a parsed spec document."""
    explicit = [key for key in ("epsilon", "tau", "phi", "psi0", "psiA",
                                "symbols") if key in doc]
    if "zoo" in doc:
        if explicit:
            raise SpecError(
                "spec must give either explicit parameters or a zoo "
                f"reference, not both (saw {explicit} next to 'zoo')")
        zref = doc["zoo"]
        try:
            name = zref["name"]
            m_coeffs = tuple(_rational(c, "M_coeffs entry") for c in
                             _field(zref, "M_coeffs", list, ["1"]))
            params = {key: _rational(val, f"param {key}") for key, val in
                      _field(zref, "params", dict, {}).items()}
            trunc = _field(doc, "trunc", int)
            spec = ZooSpec(name, M_coeffs=m_coeffs, trunc=trunc,
                           free_params=params)
        except (KeyError, ValueError, TypeError, ZeroDivisionError,
                ExpansionError) as exc:
            raise SpecError(f"bad zoo reference: {exc}") from exc
        curve = zoo_build(spec)
        canonical = {
            "zoo": {"name": name,
                    "M_coeffs": [str(c) for c in m_coeffs],
                    "params": {k: str(v) for k, v in sorted(params.items())}},
            "trunc": trunc}
        return curve, canonical
    try:
        symbols = [(entry["name"],
                    _rational(entry["square"], f"square of {entry['name']}")
                    if "square" in entry else None)
                   for entry in _field(doc, "symbols", list, [])]
        ring = Ring(symbols)
        epsilon = _field(doc, "epsilon", int)
        trunc = _field(doc, "trunc", int)
        tau, phi, psi0, psiA = (
            _parse_indexed(ring, _field(doc, key, dict, {}), pair, key)
            for key, pair in (("tau", False), ("phi", True),
                              ("psi0", False), ("psiA", True)))
        curve = CurveData(ring, epsilon, tau, phi, psi0, psiA, trunc)
    except (KeyError, ValueError, TypeError, ScalarParseError, ShapeError,
            AdmissibilityError) as exc:
        raise SpecError(f"bad curve spec: {exc}") from exc
    canonical = {
        "epsilon": epsilon,
        "symbols": [{"name": name} if square is None
                    else {"name": name, "square": str(square)}
                    for name, square in sorted(symbols)],
        "tau": {str(l): v.literal() for l, v in sorted(curve.tau.items())},
        "phi": {f"{k},{l}": v.literal()
                for (k, l), v in sorted(curve.phi.items())},
        "psi0": {str(k): v.literal()
                 for k, v in sorted(curve.psi0.items())},
        "psiA": {f"{k},{l}": v.literal()
                 for (k, l), v in sorted(curve.psiA.items())},
        "trunc": trunc}
    return curve, canonical


def canonical_bytes(doc):
    return (json.dumps(doc, sort_keys=True, separators=(",", ":"))
            + "\n").encode("utf-8")


def curve_hash(canonical_doc):
    return hashlib.sha256(canonical_bytes(canonical_doc)).hexdigest()


# --- result files -----------------------------------------------------------


def tensor_document(tensor, digest, chi_max, engine):
    entries = []
    for key in tensor.sorted_keys():
        g, bos, fer = key
        entries.append({"g": g, "bos": list(bos), "fer": list(fer),
                        "value": tensor.entries[key].literal()})
    return {"curve_hash": digest, "chi_max": chi_max, "engine": engine,
            "entries": entries}


def document_entries(doc, ring):
    """Re-parse a result document into canonical-keyed scalar entries."""
    out = {}
    for entry in doc["entries"]:
        key = (int(entry["g"]), tuple(entry["bos"]), tuple(entry["fer"]))
        out[key] = ring.parse(entry["value"])
    return out


def write_bytes(path, data):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path, doc):
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(["g", "bos", "fer", "value"])
    for entry in doc["entries"]:
        writer.writerow([entry["g"],
                         " ".join(map(str, entry["bos"])),
                         " ".join(map(str, entry["fer"])),
                         entry["value"]])
    write_bytes(path, text.getvalue().encode("utf-8"))


# --- cache ------------------------------------------------------------------


def cache_directory():
    return os.environ.get(
        CACHE_ENV,
        os.path.join(os.path.expanduser("~"), ".cache", "superrec"))


@functools.cache
def code_digest():
    """sha256 over this package's own sources, read once per process: a
    cached result whose wrapper names other code is evicted, not served."""
    package = os.path.dirname(os.path.abspath(__file__))
    digest = hashlib.sha256()
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                source = handle.read()
            digest.update(name.encode("utf-8") + b"\0")
            digest.update(hashlib.sha256(source).digest())
    return digest.hexdigest()


def _cache_path(digest, chi_max, engine):
    return os.path.join(cache_directory(),
                        f"{digest}-{chi_max}-{engine}.json")


def cache_load(digest, chi_max, engine):
    path = _cache_path(digest, chi_max, engine)
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
        wrapper = json.loads(raw)
        payload = wrapper["payload"]
        if wrapper["sha256"] != hashlib.sha256(
                canonical_bytes(payload)).hexdigest():
            raise ValueError("digest mismatch")
        if wrapper["code"] != code_digest():
            raise ValueError("code mismatch")
        if payload["curve_hash"] != digest \
                or payload["chi_max"] != chi_max \
                or payload["engine"] != engine:
            raise ValueError("key mismatch")
        return payload
    except OSError:
        return None
    except (ValueError, KeyError, TypeError):
        # corrupt entries and entries of other code are evicted, never
        # trusted
        try:
            os.unlink(path)
        except OSError:
            pass
        return None


def cache_store(doc):
    directory = cache_directory()
    os.makedirs(directory, exist_ok=True)
    wrapper = {"payload": doc,
               "sha256": hashlib.sha256(canonical_bytes(doc)).hexdigest(),
               "code": code_digest()}
    write_bytes(_cache_path(doc["curve_hash"], doc["chi_max"],
                            doc["engine"]),
                canonical_bytes(wrapper))


# --- computation ------------------------------------------------------------


def _diff_report(tensor_tr, tensor_airy):
    zero = tensor_tr.zero
    lines = []
    for key in sorted(tensor_tr.entries.keys() | tensor_airy.entries.keys()):
        a = tensor_tr.entries.get(key, zero)
        b = tensor_airy.entries.get(key, zero)
        if a != b:
            lines.append(f"  {key}: tr={a.literal()} airy={b.literal()}")
    return lines


def engine_document(curve, digest, chi_max, engine):
    """Result document of one engine, or of both after an entry-for-entry
    diff ("both"); never touches the cache."""
    needed = required_truncation(curve.epsilon, chi_max)
    if curve.trunc < needed:
        raise TruncationError(
            f"truncation {curve.trunc} below the required {needed} "
            f"for chi_max={chi_max}")
    if engine != "both":
        run = run_tr if engine == "tr" else run_airy
        return tensor_document(run(curve, chi_max), digest, chi_max, engine)
    tensor = run_tr(curve, chi_max)
    diff = _diff_report(tensor, run_airy(curve, chi_max))
    if diff:
        raise MismatchError("engine outputs differ:\n" + "\n".join(diff))
    return tensor_document(tensor, digest, chi_max, "both")


def compute_document(curve, canonical, chi_max, engine, use_cache=True):
    digest = curve_hash(canonical)
    if use_cache:
        cached = cache_load(digest, chi_max, engine)
        if cached is not None:
            return cached
    doc = engine_document(curve, digest, chi_max, engine)
    if not use_cache:
        cached = cache_load(digest, chi_max, engine)
        if cached is not None and canonical_bytes(cached) \
                != canonical_bytes(doc):
            print("warning: recomputed result differs from the cached "
                  "copy; overwriting", file=sys.stderr)
    cache_store(doc)
    return doc


# --- commands ---------------------------------------------------------------


def _resolve_curve(args):
    """(curve, canonical document) for compute and crosscheck; a fitted zoo
    curve shallower than zoo_truncation(chi_max) misses polarization
    entries the engines read, so both would agree on a wrong tensor."""
    doc = load_spec_document(args.curve, args.chi_max)
    curve, canonical = build_curve(doc)
    name = canonical.get("zoo", {}).get("name")
    needed = zoo_truncation(args.chi_max)
    if name in FITTED_NAMES and curve.trunc < needed:
        raise TruncationError(
            f"fitted curve {name} needs trunc >= {needed} for "
            f"chi_max={args.chi_max}, got trunc {curve.trunc}")
    return curve, canonical


def cmd_compute(args):
    if args.chi_max < 3:
        raise SpecError(f"chi-max must be >= 3 (got {args.chi_max})")
    if args.chi_max > CHI_WARN:
        print(f"warning: chi-max {args.chi_max} > {CHI_WARN}; expect "
              "combinatorial growth in run time", file=sys.stderr)
    if args.csv and not args.out:
        raise SpecError("--csv requires --out")
    curve, canonical = _resolve_curve(args)
    doc = compute_document(curve, canonical, args.chi_max, args.engine,
                           use_cache=not args.no_cache)
    data = canonical_bytes(doc)
    if args.out:
        write_bytes(args.out, data)
    else:
        sys.stdout.write(data.decode("utf-8"))
    if args.csv:
        write_csv(args.out + ".csv", doc)
    return 0


def cmd_crosscheck(args):
    if args.chi_max < 3:
        raise SpecError(f"chi-max must be >= 3 (got {args.chi_max})")
    curve, canonical = _resolve_curve(args)
    digest = curve_hash(canonical)
    doc = engine_document(curve, digest, args.chi_max, "both")
    print(f"crosscheck ok: {len(doc['entries'])} entries, "
          f"chi_max={args.chi_max}, curve {digest[:12]}")
    return 0


def _algebra_monomials(ring, degree, index_range):
    from itertools import combinations, combinations_with_replacement
    cap = 4 * (index_range + 2)
    for nb in range(degree + 1):
        for bos in combinations_with_replacement(
                range(1, index_range + 1), nb):
            for nf in range(degree - nb + 1):
                for fer in combinations(range(0, index_range + 1), nf):
                    yield FockPoly.monomial(ring, cap, bos, fer)


def cmd_verify_algebra(args):
    if args.degree < 1 or args.mode_range < 1:
        raise SpecError("--degree and --mode-range must be >= 1")
    ring = Ring([])
    full_span = range(-args.mode_range, args.mode_range + 1)
    # the quadratic modes are only defined down to label -1
    low_span = range(-1, args.mode_range + 1)
    families = {"heisenberg-clifford": (check_heisenberg_clifford, full_span)}
    for relation in ("comm1", "comm2", "comm3", "comm4", "comm5"):
        families[relation] = (functools.partial(check_commutator, relation),
                             low_span)
    # One sample at a time, so that the L/G images it keeps (see
    # svir.FockPoly.images) are shared by every family and dropped with it.
    passed = dict.fromkeys(families, True)
    for p in _algebra_monomials(ring, args.degree, args.mode_range):
        for name, (checker, span) in families.items():
            if passed[name]:
                passed[name] = all(checker(a, b, p)
                                   for a in span for b in span)
    failed = [name for name, ok in passed.items() if not ok]
    for name, ok in passed.items():
        print(f"{name:24s} {'pass' if ok else 'FAIL'}")
    if args.corrupt_operator:
        shift = ShiftData(ring, 3, {3: ring.one()},
                          {(1, 2): ring.one()}, {})
    else:
        shift = ShiftData.from_curve(CurveData(
            ring, 3, {3: ring.one()}, {}, {}, {}, 2 * args.degree + 14))
    report = check_airy_axioms(shift, i_max=4, probe_max=args.degree)
    ok = report == []
    print(f"{'structure-recombination':24s} {'pass' if ok else 'FAIL'}")
    if not ok:
        for name, where, detail in report:
            print(f"  {name} at {where}: {detail}")
        failed.append("structure-recombination")
    if failed:
        raise MismatchError("failing families: " + ", ".join(failed))
    return 0


def cmd_verify_curve(args):
    if args.order is not None and args.order < 0:
        raise SpecError(f"--order must be >= 0 (got {args.order})")
    doc = load_spec_document(args.curve, CHI_DEFAULT)
    curve, canonical = build_curve(doc)
    report = zoo_validate(curve, canonical.get("zoo", {}).get("name"),
                          order=args.order)
    if report:
        for name, where, detail in report:
            print(f"FAIL {name} at {where}: {detail}")
        raise MismatchError(f"{len(report)} identity failures")
    print(f"curve ok: {curve_hash(canonical)[:12]} "
          f"(epsilon={curve.epsilon}, trunc={curve.trunc})")
    return 0


def cmd_list_curves(_args):
    for name in ZOO_NAMES:
        print(name)
    return 0


def cmd_export(args):
    try:
        with open(args.result, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
        doc["entries"]
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
        raise SpecError(f"cannot read result file: {exc}") from exc
    try:
        write_csv(args.out, doc)
    except (KeyError, TypeError) as exc:
        # the rows are formed before anything is written
        raise SpecError(f"malformed result entry: {exc!r}") from exc
    return 0


# --- entry point -------------------------------------------------------------


def _add_curve_options(parser, with_engine):
    parser.add_argument("--curve", required=True,
                        help="zoo curve name or JSON spec file")
    parser.add_argument("--chi-max", type=int, default=CHI_DEFAULT)
    if with_engine:
        parser.add_argument("--engine", choices=("tr", "airy", "both"),
                            default="tr")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="superrec",
        description="exact correlation tensors on local super curves")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="run an engine and export the tensor")
    _add_curve_options(p, with_engine=True)
    p.add_argument("--out", help="result file (stdout when omitted)")
    p.add_argument("--csv", action="store_true",
                   help="also write a flat CSV next to --out")
    p.add_argument("--no-cache", action="store_true")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("crosscheck",
                       help="require byte-identical engine outputs")
    _add_curve_options(p, with_engine=False)
    p.set_defaults(func=cmd_crosscheck)

    p = sub.add_parser("verify-algebra",
                       help="check the mode-algebra relations")
    p.add_argument("--degree", type=int, default=6)
    p.add_argument("--mode-range", type=int, default=3)
    p.add_argument("--corrupt-operator", action="store_true",
                   help="negative control: inject an invalid recombination")
    p.set_defaults(func=cmd_verify_algebra)

    p = sub.add_parser("verify-curve",
                       help="check the involution identities of a curve")
    p.add_argument("--curve", required=True)
    p.add_argument("--order", type=int, default=None)
    p.set_defaults(func=cmd_verify_curve)

    p = sub.add_parser("list-curves", help="print the built-in curve names")
    p.set_defaults(func=cmd_list_curves)

    p = sub.add_parser("export", help="convert a result file to CSV")
    p.add_argument("--result", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SpecError, ExpansionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except TruncationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TRUNCATION
    except MismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except Exception as exc:
        # imported only here: it is the one user of the module, and
        # loading it adds to the start-up time and memory of every run
        import traceback
        traceback.print_exc(file=sys.stderr)
        print(f"internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
