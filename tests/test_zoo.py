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
from test_scalars import as_rational


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


def test_unread_params_rejected():
    # phi11 reads only its coupling t, and the other curves no parameter
    with pytest.raises(ExpansionError, match="'tt'"):
        ZooSpec("phi11", free_params={"tt": 5})
    for name in ZOO_NAMES:
        if name != "phi11":
            with pytest.raises(ExpansionError, match="'t'"):
                ZooSpec(name, free_params={"t": 5})
    ZooSpec("phi11", free_params={"t": 5})


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
        assert minus.tau[l] == im * ring.rational(sign * as_rational(val)), l

    for table_p, table_m, rule in (
            (plus.phi, minus.phi, lambda k, l: (-1) ** ((k + l) // 2)),
            (plus.psiA, minus.psiA, lambda p, q: (-1) ** ((p + q) // 2))):
        assert set(table_m) == set(table_p)
        for key, val in table_p.items():
            sign = rule(*key)
            assert table_m[key] == ring.rational(
                sign * as_rational(val)), key

    assert set(minus.psi0) == set(plus.psi0)
    for k, val in plus.psi0.items():
        sign = (-1) ** (k // 2)
        assert minus.psi0[k] == ring.rational(sign * as_rational(val)), k


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
    assert run_tr(curve, 4).entries == run_airy(curve, 4).entries


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


# sha256 of the fitted curve data, by (name, trunc) at M = 1 and by (name,
# trunc, weight) at the weights of WEIGHTS. The entries at trunc 12, 27 and
# 45 were recorded when the zoo inverted s by Newton iteration and
# multiplied by the inverse, the others when it divided on the whole
# triangle i + j <= trunc; a fit on the kept square must leave every
# parameter, the truncation and the resolved index as they were. Trunc 2-8,
# 13 and 28 put the fitted rectangle at 0-3, 6 and 13.
FITTED_DATA_SHA256 = {
    ("ns_plus", 2):
        "67d783855a404020b9b8f137624cd521d02d63ab8d3b055c98876a0072301812",
    ("ns_plus", 3):
        "8f765741080c97c36993a9213b716f16f31977ff67c5fe0547bb37172670c5ff",
    ("ns_plus", 4):
        "f4c1120fd9eb9eea77ca71ca9ba7a54a472c4a7bf8299d1f0f1891ceecc7f716",
    ("ns_plus", 5):
        "4372cea3e0f0258a52a208e1392e2f2e9eaff4f74c260c839fd94aed07ab876c",
    ("ns_plus", 6):
        "c993d672d29340fbc6b9ab46cef96e95403428beb2aaa5547cd746618bc46ce0",
    ("ns_plus", 7):
        "dc9dd290cd8dee85efacbf5bb7e624aadce26c4c041653a8393d608270ed2792",
    ("ns_plus", 8):
        "3f25ea56c28f47d3b0e76b860edf5a6d65c504621ffffd8ce63fb686d435a30f",
    ("ns_plus", 12):
        "9dc1150d9b02d2b3ac58760bfaa77c8dcaa537ff6f9140c5d9473bd41ddec965",
    ("ns_plus", 13):
        "8ea422a6d552f06c977a7c14b717e6e671036ec1cca35fd7ca167f7983daf118",
    ("ns_plus", 27):
        "2a6856a2f2433160755c09b5bdda9c7ec3b90321fb62df0cb80df1dfb5f2b4c9",
    ("ns_plus", 28):
        "38baa2f487f217f71097ebcda57f9178e1790ee3f0a339449ee71cd1abcc4d9b",
    ("ns_plus", 45):
        "977a0fb6ee86e89fb172c7815e8750186a6d8ec92deebabe2b729192c6f61102",
    ("ns_plus", 12, "two_thirds"):
        "089194b759e9e728d2742d751b552d7feb2f2abc69afc89cc9a6ca5ff5909cf3",
    ("ns_plus", 27, "two_thirds"):
        "13d1902dd2dd151afd19c84447871cc3ceb1fd6e6cfb9b701b405c6878d97c33",
    ("ns_plus", 12, "cubic"):
        "ecbeac0f39ca384be6317f557c27fb8377594ff1f5fff7a719134f7559d0a9d2",
    ("ns_plus", 27, "cubic"):
        "e2484546839962e1c1d1a14b26b20055c5d6bb42c25882965351efbf6522d925",
    ("ns_minus", 2):
        "b920e5cdc1e629df03f9deaddeb37546bbacc502ee34e5d8103dfdd9c8a58350",
    ("ns_minus", 3):
        "c71a98e60a849ae5dbad6d4e4648f35532c8f7eab94565af922468750ab34307",
    ("ns_minus", 4):
        "61771a6f284f5773563e71376ff38f6ac8533b204ee04c744620efdb2db64608",
    ("ns_minus", 5):
        "ea3adcaf8c33064e0485e0875c5038ab7beb0b7f8b4c0ca5c6665c76ce76984b",
    ("ns_minus", 6):
        "33685a779f2336b3724a83f2ebedb8e8c9f1ec0348cc048b96e3292bb8d39060",
    ("ns_minus", 7):
        "fabe9e6f4a7eda95e85e4a96d8b32c7fee6067a8b8b81cefcd959d7eea1c2193",
    ("ns_minus", 8):
        "5f8400fa38f41853b8a4941c1f1af4eacab16ae72571b6cb6ca54cd98211de9d",
    ("ns_minus", 12):
        "10b7edc946bfc56e8b96eeea0e089ef07befdb3e457e839dba24dbc1c5678acc",
    ("ns_minus", 13):
        "73a9092d9bba4c3eaf460b0dec6c7acea66459a5de88b4b31f97b11138aa1162",
    ("ns_minus", 27):
        "c39a6dd68be1516d5c0026a77135759a99985f2c035ba82d15e097b2f255710a",
    ("ns_minus", 28):
        "8d76bcfef18d491196139965446d17f2ccc0f4cdc13c280ec6970ca8349f9f3b",
    ("ns_minus", 45):
        "3f04eb24e2c3e350ec3b324ea6da350c6a028de32db22cf420695ebbb3eab514",
    ("ns_minus", 12, "two_thirds"):
        "3bf406ea5b4e03f89ed38d96d5906f2980296bb402ac3ea9c745a3f3c50aff56",
    ("ns_minus", 27, "two_thirds"):
        "02a4ca665ed51c3803dd7cb4cba8edec89881dd168d6ca84e59a8fa6eea152f0",
    ("ns_minus", 12, "cubic"):
        "b9524d305e70e9c04c645499bf2d5aff9c1718fa26a70427458e11ab373da9aa",
    ("ns_minus", 27, "cubic"):
        "747254d53778c6d0a71032defba487da60bbe91c8241596001faa5c384f0c39a",
    ("ramond", 2):
        "f1a98c67817bff9a41c8c3ce1887ced281ab1eed6f7c6b4b1b5e560c3cb64338",
    ("ramond", 3):
        "d92b03c19473697ff9cc36f679fcfb9394b95c5c1d1797f5ac47d071b10144de",
    ("ramond", 4):
        "6cd6c2ccdbe47478bad5b5fdbf53cf29d957cf1d4bf1cb5ae8ea4d440ae85915",
    ("ramond", 5):
        "9e227c69e6ba54f9bcfedd78a9740d159db8e4927f01a7fa7a19b1ee8f802468",
    ("ramond", 6):
        "826f027aeca0be44e7b74e408ef6bd61850f43cd1ce2442429c044a165e457bb",
    ("ramond", 7):
        "9c22eb179db7f94870b107ba3c454fb41dc91d6905630edbdc4d905dba639ba5",
    ("ramond", 8):
        "b33708869982415e466b93ca6e6d93ad3b7522e70aa456d731a7dccbbba6ead2",
    ("ramond", 12):
        "d028d13ed0220c146bff490363cea1dd159e6fc7a61c4e67ccff198901a9e807",
    ("ramond", 13):
        "08be158b563202667b64391d9af62de5931819833b7bb18c3b304b88d73d2673",
    ("ramond", 27):
        "1556d99fd61907b482e3d401b8c50a6d183fff48dccb02fbdbd7d11249be591c",
    ("ramond", 28):
        "dcc51748d0282d6fb57e9de47868729639610c5417428d6337370fd030fb2fe8",
    ("ramond", 45):
        "a162546d68e5915ae10c6bc330387ec207587e353daecb8946a16b9dc4d60179",
    ("ramond", 12, "two_thirds"):
        "701911bc46e195bde94115abc5acf78ef4138e0d4d991e6bab38b47f208db890",
    ("ramond", 27, "two_thirds"):
        "9ef415e239f0175c301ce088fd97e9c340b0922fe9135229a4bffd71482c6628",
    ("ramond", 12, "cubic"):
        "d789e12744f80507c099e9a9f13f4ef8d1e1bca3e6a4fda3dfd83eea00ee387b",
    ("ramond", 27, "cubic"):
        "e46bc056e91405a6b6593bae0fc2eedf8b10e0e33e95581f03a802f413f9348d",
}

# The weights M the pins read besides M = 1, by the name in the pin's key.
WEIGHTS = {"two_thirds": ("2/3",), "cubic": (2, -1, "1/3")}


def curve_data_sha256(curve):
    def literals(params):
        return sorted((k, v.literal()) for k, v in params.items())
    data = [("tau", literals(curve.tau)), ("phi", literals(curve.phi)),
            ("psi0", literals(curve.psi0)), ("psiA", literals(curve.psiA)),
            ("trunc", curve.trunc), ("resolved", curve.resolved)]
    return hashlib.sha256(repr(data).encode()).hexdigest()


@pytest.mark.parametrize("case", [
    pytest.param(case, id="-".join(map(str, case)))
    for case in FITTED_DATA_SHA256])
def test_fitted_curve_data_is_pinned(case):
    name, trunc, *weight = case
    kw = {"M_coeffs": WEIGHTS[weight[0]]} if weight else {}
    assert curve_data_sha256(build(name, trunc=trunc, **kw)) == \
        FITTED_DATA_SHA256[case]


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
