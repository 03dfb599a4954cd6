"""Example-curve generator tests.

Fitted curve data is pinned against hand-expanded leading coefficients,
the involution identities of the defining forms are verified to a modest
order (the acceptance run pushes them to high order), the two engines are
cross-checked on the fitted curves, and the validator is shown to detect
corrupted data.
"""

import functools
import hashlib
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from math import factorial

import pytest

import superrec
from superrec.airyengine import run_airy, run_bosonic
from superrec.curve import CurveData
from superrec.scalars import Ring
from superrec.series import TruncationError
from superrec.store import index_bound
from superrec.trengine import run_tr
from superrec.zoo import (ZOO_NAMES, ExpansionError, ZooSpec, zoo_build,
                          zoo_truncation, zoo_validate)


def build(name, trunc=24, **kw):
    return zoo_build(ZooSpec(name, trunc=trunc, **kw))


# --- spec validation ------------------------------------------------------------


def test_unknown_name_rejected():
    with pytest.raises(ExpansionError):
        ZooSpec("nope")


def test_zero_weight_rejected_for_fitted_curves():
    with pytest.raises(ExpansionError):
        ZooSpec("ramond", M_coeffs=(0,))
    with pytest.raises(ExpansionError):
        ZooSpec("ns_plus", M_coeffs=(Fraction(0),))
    # the weight is ignored for the non-fitted curves
    ZooSpec("airy", M_coeffs=(0,))


# --- simple curves ---------------------------------------------------------------


def test_airy_bessel_phi11_data():
    airy = build("airy")
    assert airy.epsilon == 3 and set(airy.tau) == {3}
    assert not airy.phi and not airy.psi0 and not airy.psiA
    bessel = build("bessel")
    assert bessel.epsilon == 1 and set(bessel.tau) == {1}
    sym = build("phi11")
    assert sym.phi == {(1, 1): sym.ring.symbol("t")}
    num = build("phi11", free_params={"t": Fraction(2, 3)})
    assert num.phi == {(1, 1): num.ring.rational(Fraction(2, 3))}
    trivial = build("phi11", free_params={"t": 0})
    assert trivial.phi == {}


def test_super_jt_truncation_warns():
    with pytest.warns(UserWarning):
        curve = build("super_jt", trunc=9)
    ring = curve.ring
    sqrt2, pi2 = ring.symbol("sqrt2"), ring.symbol("pi2")
    assert curve.epsilon == 1
    assert curve.tau[1] == sqrt2
    assert curve.tau[3] == sqrt2 * pi2 * ring.rational(Fraction(-1, 2))
    assert curve.tau[5] == sqrt2 * pi2 * pi2 * ring.rational(Fraction(1, 24))
    assert max(curve.tau) <= 9


@pytest.mark.parametrize("trunc", [0, 24])
def test_super_jt_keeps_indices_through_trunc_plus_one(trunc):
    # tau_l multiplies z^(l - 1), which a truncation-trunc expansion holds
    # for l <= trunc + 1
    with pytest.warns(UserWarning, match=f"up to trunc \\+ 1 = {trunc + 1}"):
        curve = build("super_jt", trunc=trunc)
    ring = curve.ring
    assert max(curve.tau) == trunc + 1
    top = ring.symbol("sqrt2") * ring.rational(
        Fraction((-1) ** (trunc // 2), factorial(trunc)))
    for _ in range(trunc // 2):
        top = top * ring.symbol("pi2")
    assert curve.tau[trunc + 1] == top


# --- fitted curves ---------------------------------------------------------------


def test_ns_plus_leading_data():
    curve = build("ns_plus", trunc=20)
    ring = curve.ring
    want_tau = {3: Fraction(-1, 2), 5: Fraction(-1, 16),
                7: Fraction(1, 256), 9: Fraction(-1, 2048)}
    for l, val in want_tau.items():
        assert curve.tau[l] == ring.rational(val), l
    assert all(l % 2 == 1 for l in curve.tau)
    assert curve.phi[(1, 1)] == ring.rational(Fraction(-1, 8))
    assert curve.psi0[2] == ring.rational(Fraction(-1, 8))
    assert curve.psi0[4] == ring.rational(Fraction(3, 128))


def test_ramond_leading_data():
    curve = build("ramond", trunc=20)
    ring = curve.ring
    half_sqrt2 = ring.symbol("sqrt2") * ring.rational(Fraction(1, 2))
    assert curve.tau[3] == half_sqrt2
    assert curve.psi0 == {}


def test_ns_sign_flip_law():
    """ns_minus data is an index-graded sign/imaginary twist of ns_plus."""
    plus = build("ns_plus", trunc=20)
    minus = build("ns_minus", trunc=20)
    ring = minus.ring
    im = ring.symbol("im")

    assert set(minus.tau) == set(plus.tau)
    for l, val in plus.tau.items():
        sign = (-1) ** ((l - 3) // 2)
        assert minus.tau[l] == im * ring.rational(sign * val.as_rational()), l

    for table_p, table_m, rule in (
            (plus.phi, minus.phi, lambda k, l: (-1) ** ((k + l) // 2)),
            (plus.psiA, minus.psiA, lambda p, q: (-1) ** ((p + q) // 2))):
        assert set(table_m) == set(table_p)
        for key, val in table_p.items():
            sign = rule(*key)
            assert table_m[key] == ring.rational(
                sign * val.as_rational()), key

    assert set(minus.psi0) == set(plus.psi0)
    for k, val in plus.psi0.items():
        sign = (-1) ** (k // 2)
        assert minus.psi0[k] == ring.rational(sign * val.as_rational()), k


# --- involution identities --------------------------------------------------------


@pytest.mark.parametrize("name", [n for n in ZOO_NAMES if n != "super_jt"])
def test_involution_identities(name):
    spec = ZooSpec(name, trunc=24)
    assert zoo_validate(zoo_build(spec), spec.name) == []


def test_involution_identities_super_jt():
    spec = ZooSpec("super_jt", trunc=15)
    with pytest.warns(UserWarning):
        curve = zoo_build(spec)
    assert zoo_validate(curve, spec.name) == []


def test_validator_detects_even_dilaton_index():
    spec = ZooSpec("airy", trunc=12)
    curve = zoo_build(spec)
    curve.tau[2] = curve.ring.one()
    report = zoo_validate(curve, spec.name)
    assert ("one-form sigma-sum", 2, "even dilaton index") in report


def test_validator_detects_even_bosonic_index():
    spec = ZooSpec("phi11", trunc=12, free_params={"t": 1})
    curve = zoo_build(spec)
    curve.phi[(2, 2)] = curve.ring.one()
    report = zoo_validate(curve, spec.name)
    assert any(name == "bosonic sigma-sum" for name, _, _ in report)


def test_validator_detects_corrupted_polarization():
    # an odd-index zero-mode row lands in the part of the kernel that
    # survives the involution sum, so it must be flagged (even-index
    # perturbations live in the self-cancelling part and are legal)
    spec = ZooSpec("ns_plus", trunc=16)
    curve = zoo_build(spec)
    curve.psi0[3] = curve.ring.one()
    report = zoo_validate(curve, spec.name)
    assert any(name == "fermionic sigma-sum" for name, _, _ in report)


# --- engine cross-checks and pinned values ----------------------------------------


@pytest.mark.parametrize("name", ["ns_plus", "ns_minus", "ramond"])
def test_fitted_curve_engine_agreement(name):
    curve = build(name, trunc=20)
    assert run_tr(curve, 4).nonzero_equal(run_airy(curve, 4))


def test_pinned_correlation_values():
    ns = build("ns_plus", trunc=20)
    tensor = run_tr(ns, 4)
    assert tensor.get(0, (1,), (0, 2)) == ns.ring.rational(-1)
    assert tensor.get(0, (1, 1, 1), ()) == ns.ring.rational(2)
    assert tensor.get(1, (1,), ()) == ns.ring.rational(Fraction(-5, 16))
    ram = build("ramond", trunc=20)
    rtensor = run_tr(ram, 4)
    half_sqrt2 = ram.ring.symbol("sqrt2") * ram.ring.rational(Fraction(1, 2))
    assert rtensor.get(0, (1,), (0, 2)) == half_sqrt2


# sha256 of the fitted curve data, recorded when the zoo inverted s by
# Newton iteration and multiplied by the inverse; the fit by exact division
# must leave every parameter, the truncation and the resolved index as
# they were
FITTED_DATA_SHA256 = {
    ("ns_plus", 12):
        "9dc1150d9b02d2b3ac58760bfaa77c8dcaa537ff6f9140c5d9473bd41ddec965",
    ("ns_plus", 27):
        "2a6856a2f2433160755c09b5bdda9c7ec3b90321fb62df0cb80df1dfb5f2b4c9",
    ("ns_plus", 45):
        "977a0fb6ee86e89fb172c7815e8750186a6d8ec92deebabe2b729192c6f61102",
    ("ns_minus", 12):
        "10b7edc946bfc56e8b96eeea0e089ef07befdb3e457e839dba24dbc1c5678acc",
    ("ns_minus", 27):
        "c39a6dd68be1516d5c0026a77135759a99985f2c035ba82d15e097b2f255710a",
    ("ns_minus", 45):
        "3f04eb24e2c3e350ec3b324ea6da350c6a028de32db22cf420695ebbb3eab514",
    ("ramond", 12):
        "d028d13ed0220c146bff490363cea1dd159e6fc7a61c4e67ccff198901a9e807",
    ("ramond", 27):
        "1556d99fd61907b482e3d401b8c50a6d183fff48dccb02fbdbd7d11249be591c",
    ("ramond", 45):
        "a162546d68e5915ae10c6bc330387ec207587e353daecb8946a16b9dc4d60179",
}


def curve_data_sha256(curve):
    def literals(params):
        return sorted((k, v.literal()) for k, v in params.items())
    data = [("tau", literals(curve.tau)), ("phi", literals(curve.phi)),
            ("psi0", literals(curve.psi0)), ("psiA", literals(curve.psiA)),
            ("trunc", curve.trunc), ("resolved", curve.resolved)]
    return hashlib.sha256(repr(data).encode()).hexdigest()


@pytest.mark.parametrize("name,trunc", FITTED_DATA_SHA256)
def test_fitted_curve_data_is_pinned(name, trunc):
    assert curve_data_sha256(build(name, trunc=trunc)) == \
        FITTED_DATA_SHA256[name, trunc]


# --- the depth rule ------------------------------------------------------------

# (name, trunc, chi_max) too shallow for chi_max: the fitted curves do not
# resolve the polarization indices the entries read, and super_jt's
# truncation is below the engines' need. Each gave a wrong tensor before
# the engines checked the depth.
TOO_SHALLOW = [("ramond", 17, 6), ("super_jt", 1, 6), ("ns_plus", 22, 6),
               ("ns_minus", 30, 7), ("ramond", 26, 7), ("super_jt", 3, 7)]
ENGINES = {"tr": run_tr, "airy": run_airy, "bosonic": run_bosonic}


@functools.cache
def quiet_build(name, trunc):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # super_jt's truncated dilaton
        return build(name, trunc=trunc)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name,trunc,chi_max", TOO_SHALLOW)
def test_engines_refuse_data_too_shallow_for_chi_max(name, trunc, chi_max,
                                                      engine):
    with pytest.raises(TruncationError, match=f"chi_max={chi_max}"):
        ENGINES[engine](quiet_build(name, trunc), chi_max)


def test_engines_refuse_data_too_shallow_under_optimized_python():
    src = os.path.dirname(os.path.dirname(os.path.abspath(superrec.__file__)))
    script = (
        "import warnings\n"
        "from superrec.airyengine import run_airy, run_bosonic\n"
        "from superrec.series import TruncationError\n"
        "from superrec.trengine import run_tr\n"
        "from superrec.zoo import ZooSpec, zoo_build\n"
        "warnings.simplefilter('ignore')\n"
        f"for name, trunc, chi_max in {TOO_SHALLOW[:2]!r}:\n"
        "    curve = zoo_build(ZooSpec(name, trunc=trunc))\n"
        "    for run in (run_tr, run_airy, run_bosonic):\n"
        "        try:\n"
        "            run(curve, chi_max)\n"
        "        except TruncationError:\n"
        "            print('refused')\n")
    for flags in ([], ["-O"]):
        run = subprocess.run([sys.executable] + flags + ["-c", script],
                             env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True)
        assert (run.returncode, run.stdout) == (0, "refused\n" * 6), flags


@pytest.mark.parametrize("name", ["ns_plus", "ns_minus", "ramond"])
def test_fitted_curves_resolve_their_rectangle(name):
    # the fit keeps z1^i z2^j for i, j < (trunc - 1) // 2, and psi_kl sits
    # at z1^l z2^k
    for trunc in (9, 12, 17):
        assert quiet_build(name, trunc).resolved == (trunc - 1) // 2 - 1
    assert quiet_build("phi11", 12).resolved is None


@pytest.mark.parametrize("chi_max", range(4, 9))
def test_depth_rule_refuses_exactly_below_zoo_truncation(chi_max):
    # what a fit at each trunc resolves, on a stand-in curve that needs no
    # fit; the rule reads nothing else of the data
    ring = Ring([])
    needed = zoo_truncation(chi_max)
    for trunc in range(needed - 12, needed + 4):
        curve = CurveData(ring, 3, {3: ring.one()}, {}, {}, {}, trunc,
                          resolved=(trunc - 1) // 2 - 1)
        if trunc < needed:
            with pytest.raises(TruncationError):
                curve.check_depth(chi_max)
        else:
            curve.check_depth(chi_max)
    # the least trunc accepted resolves exactly the index read
    assert (needed - 1) // 2 - 1 == index_bound(chi_max)


@pytest.mark.parametrize("name", ["ns_plus", "ns_minus", "ramond"])
def test_fitted_trunc_9_is_exact_at_chi_3(name):
    # the rule accepts trunc 9 at chi 3, below zoo_truncation(3) = 12
    shallow, deep = quiet_build(name, 9), quiet_build(name, 12)
    for run in (run_tr, run_airy):
        assert run(shallow, 3).entries == run(deep, 3).entries
