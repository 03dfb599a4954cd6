"""Example-curve generator tests.

Fitted curve data is pinned against hand-expanded leading coefficients,
the involution identities of the defining forms are verified to a modest
order (the acceptance run pushes them to high order), the two engines are
cross-checked on the fitted curves, and the validator is shown to detect
corrupted data.
"""

from fractions import Fraction
from math import factorial

import pytest

from superrec.airyengine import run_airy
from superrec.trengine import run_tr
from superrec.zoo import (ZOO_NAMES, ExpansionError, ZooSpec, zoo_build,
                          zoo_validate)


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
