from fractions import Fraction

import pytest

from superrec.curve import (
    AdmissibilityError, CurveBases, CurveData, InconsistentPolarization,
    ShapeError, complete_psi, fit_parameters, pairing_B, pairing_F)
from superrec.scalars import Ring
from superrec.series import FormalSeries, TruncationError
from superrec.store import index_bound


RING = Ring([])


def rat(value):
    return RING.rational(Fraction(value))


def airy_curve(trunc=20):
    return CurveData(RING, 3, {3: rat(1)}, {}, {}, {}, trunc)


def rich_curve(trunc=24):
    """A curve exercising every parameter type."""
    return CurveData(
        RING, 3,
        {3: rat(1), 5: rat("2/3"), 4: rat("1/2")},
        {(1, 1): rat("1/2"), (1, 2): rat(-3), (2, 2): rat("1/5")},
        {1: rat(2), 2: rat("-1/3")},
        {(1, 2): rat("1/7"), (2, 3): rat(4)},
        trunc)


def test_admissibility():
    with pytest.raises(AdmissibilityError):
        CurveData(RING, 3, {1: rat(1), 3: rat(1)}, {}, {}, {}, 10)
    with pytest.raises(AdmissibilityError):
        CurveData(RING, 1, {3: rat(1)}, {}, {}, {}, 10)
    with pytest.raises(AdmissibilityError):
        CurveData(RING, 3, {5: rat(1)}, {}, {}, {}, 10)
    CurveData(RING, 1, {1: rat(1)}, {}, {}, {}, 10)


def test_index_past_truncation():
    # index l multiplies z^(l-1): at trunc 10 the largest index held is 11
    def params(l):  # (tau, phi, psi0, psiA) with one index l, by name
        tau, one = {3: rat(1)}, rat(1)
        return {"tau": ({3: one, l: one}, {}, {}, {}),
                "phi": (tau, {(1, l): one}, {}, {}),
                "psi0": (tau, {}, {l: one}, {}),
                "psiA": (tau, {}, {}, {(2, l): one})}
    for key in ("tau", "phi", "psi0", "psiA"):
        CurveData(RING, 3, *params(11)[key], 10)
        with pytest.raises(ShapeError,
                           match=f"{key} index .*12.* past truncation 10"):
            CurveData(RING, 3, *params(12)[key], 10)


def test_complete_psi_examples():
    c1 = CurveData(RING, 3, {3: rat(1)}, {}, {2: rat(3)}, {}, 10)
    psi = complete_psi(c1, 3)
    assert psi[(2, 2)] == rat("-9/2")
    assert psi[(0, 0)].is_zero()
    c2 = CurveData(RING, 3, {3: rat(1)}, {}, {}, {(1, 2): rat(5)}, 10)
    psi = complete_psi(c2, 2)
    assert psi[(2, 1)] == rat(-5)
    c3 = CurveData(RING, 3, {3: rat(1)}, {}, {1: rat(1), 2: rat(1)}, {}, 10)
    psi = complete_psi(c3, 2)
    assert psi[(2, 1)] == rat(-1)
    # defining constraint holds across the table
    for curve in (c1, c2, c3, rich_curve()):
        psi = complete_psi(curve, 4)
        for k in range(5):
            for l in range(5):
                assert psi[(k, l)] + psi[(l, k)] \
                    + psi[(0, k)] * psi[(0, l)] == RING.zero(), (k, l)


def test_delta_omega():
    bases = CurveBases(rich_curve())
    # doubled odd part only: 2 z^2 dz + 4/3 z^4 dz
    assert bases.delta_omega.coeff(2) == rat(2)
    assert bases.delta_omega.coeff(4) == rat("4/3")
    assert bases.delta_omega.coeff(3).is_zero()
    assert bases.delta_omega.coeff(0).is_zero()


def test_dxi_minus_trivial():
    bases = CurveBases(airy_curve())
    dxi2 = bases.dxi_minus(2)
    assert dxi2.coeff(-3) == RING.one()
    assert all(dxi2.coeff(k).is_zero() for k in range(-2, 10))


def test_eta_zero_with_psi0():
    c = CurveData(RING, 3, {3: rat(1)}, {}, {1: rat(7)}, {}, 10)
    bases = CurveBases(c)
    eta0 = bases.eta_zero
    assert eta0.theta == 1 and eta0.dz_weight == 0
    assert eta0.coeff(-1) == RING.one()
    assert eta0.coeff(0) == rat(7)


def test_truncation_guard():
    with pytest.raises(TruncationError):
        CurveBases(airy_curve(trunc=5), chi_max=6)
    CurveBases(airy_curve(trunc=index_bound(6) + 3 + 2), chi_max=6)


@pytest.mark.parametrize("curve", [airy_curve(), rich_curve()],
                         ids=["airy", "rich"])
def test_pairing_normalizations(curve):
    bases = CurveBases(curve)
    bound = index_bound(6)
    ks = [k for k in range(-bound, bound + 1) if k != 0]
    for k in ks:
        for l in ks:
            expect = RING.zero()
            if k + l == 0:
                expect = rat(Fraction(1, k))
            assert pairing_B(bases.dxi(k), bases.dxi(l)) == expect, (k, l)
    for k in range(-bound, bound + 1):
        for l in range(-bound, bound + 1):
            expect = RING.one() if k + l == 0 else RING.zero()
            assert pairing_F(bases.eta(k), bases.eta(l)) == expect, (k, l)


def test_bosonic_projection_property(rng_series=None):
    bases = CurveBases(rich_curve())
    # random one-form without z^-1 term
    coeffs = {-4: rat(3), -2: rat("-1/2"), -1: RING.zero(), 0: rat(5),
              3: rat(2)}
    omega = FormalSeries(RING, coeffs, bases.trunc, 1, 0)
    # pair against the bosonic bilinear: sum_l l dxi_{-l}(z) dxi_l(small)
    projected = FormalSeries.zero(RING, bases.trunc, 1, 0)
    for l in range(1, 8):
        c = pairing_B(bases.dxi_plus(l), omega) * RING.rational(l)
        projected = projected + bases.dxi_minus(l) * c
    # expected: keep the negative-index part, expressed in the dxi basis
    expected = FormalSeries.zero(RING, bases.trunc, 1, 0)
    for exp, val in coeffs.items():
        l = exp + 1  # omega term val * z^(l-1) dz
        if l < 0:
            expected = expected + bases.dxi_minus(-l).scale(val)
    assert projected == expected


def test_fermionic_projection_property():
    bases = CurveBases(rich_curve())
    half = RING.rational(Fraction(1, 2))
    cases = [("minus", bases.eta_minus(2)), ("zero", bases.eta_zero),
             ("plus", bases.eta_plus(3))]
    for label, target in cases:
        projected = FormalSeries.zero(RING, bases.trunc, 0, 1)
        for l in range(1, 10):
            c = pairing_F(bases.eta_plus(l), target)
            projected = projected + bases.eta_minus(l).scale(c)
        projected = projected + bases.eta_zero.scale(
            half * pairing_F(bases.eta_zero, target))
        if label == "plus":
            assert projected.is_zero()
        elif label == "zero":
            assert projected == bases.eta_zero.scale(half)
        else:
            assert projected == target


def test_fit_roundtrip_on_curve_data():
    curve = rich_curve()
    bases = CurveBases(curve)
    fitted = fit_parameters(RING, curve.epsilon, bases.omega01,
                            bases.omega02.regular, bases.omega002.regular,
                            curve.trunc)
    assert fitted.tau == curve.tau
    assert fitted.phi == curve.phi
    assert fitted.psi0 == curve.psi0
    assert fitted.psiA == curve.psiA


def test_fit_simple_examples():
    omega01 = FormalSeries(RING, {2: rat(1)}, 10, 1, 0)
    fitted = fit_parameters(RING, 3, omega01, {}, {}, 10)
    assert fitted.tau == {3: rat(1)}
    fitted = fit_parameters(RING, 3, omega01, {(1, 1): rat(5)}, {}, 10)
    assert fitted.phi == {(1, 1): rat(5)}


def test_fit_shape_errors():
    bad01 = FormalSeries(RING, {-2: rat(1), 2: rat(1)}, 10, 1, 0)
    with pytest.raises(ShapeError):
        fit_parameters(RING, 3, bad01, {}, {}, 10)
    omega01 = FormalSeries(RING, {2: rat(1)}, 10, 1, 0)
    with pytest.raises(InconsistentPolarization):
        fit_parameters(RING, 3, omega01, {(1, 2): rat(1)}, {}, 10)
    with pytest.raises(InconsistentPolarization):
        fit_parameters(RING, 3, omega01, {},
                       {(2, 1): rat(1), (1, 2): rat(1)}, 10)


def test_sigma_parity_of_omega01():
    bases = CurveBases(rich_curve())
    total = bases.omega01 + bases.omega01.sigma()
    # the sigma-odd (odd-l) part cancels; delta_omega is exactly twice it
    diff = bases.omega01 - bases.omega01.sigma()
    assert diff == bases.delta_omega
    for k, v in total.coeffs.items():
        assert k % 2 == 1  # only even-l (odd exponent) terms survive
