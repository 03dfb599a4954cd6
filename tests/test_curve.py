import os
import subprocess
import sys
from fractions import Fraction

import pytest
import sympy

import superrec
from superrec.curve import (
    AdmissibilityError, CurveBases, CurveData, InconsistentPolarization,
    ShapeError, fit_parameters, psi_regular)
from superrec.scalars import Ring
from superrec.series import FormalSeries, TruncationError, WeightError
from superrec.store import index_bound
from superrec.trengine import TrSolver
from oracles import coeff, integrate, omega01, residue
from test_scalars import as_rational


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


def irregular_curve(trunc=30):
    return CurveData(
        RING, 1,
        {1: rat(1), 2: rat("1/2"), 3: rat("-1/3")},
        {(1, 1): rat(1), (1, 3): rat("2/7")},
        {1: rat("-1/2"), 3: rat(1)},
        {(1, 2): rat(3)},
        trunc)


# --- the residue pairings, the oracle of the basis and projection tests ------


def pairing_B(a, b):
    """Res (antiderivative of a) * b for one-forms a, b."""
    return residue(integrate(a) * b)


def pairing_F(a, b):
    """Res a * b for odd-parity weight-0 series a, b."""
    if a.theta != 1 or b.theta != 1 or a.dz_weight or b.dz_weight:
        raise WeightError("fermionic pairing needs two odd half-forms")
    return residue(a * b)


def basis_dxi(bases, l):
    """The bosonic basis one-form of the pairings: dxi_plus(l) for l > 0,
    dxi_minus(-l) for l < 0."""
    return bases.dxi_plus(l) if l > 0 else bases.dxi_minus(-l)


def basis_eta(bases, l):
    """The fermionic basis series of the pairings: eta_plus(l) for l > 0,
    eta_minus(-l) for l <= 0 (eta_minus(0) is the zero mode)."""
    return bases.eta_plus(l) if l > 0 else bases.eta_minus(-l)


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


HAND_PSI_CURVES = [
    CurveData(RING, 3, {3: rat(1)}, {}, {2: rat(3)}, {}, 10),
    CurveData(RING, 3, {3: rat(1)}, {}, {}, {(1, 2): rat(5)}, 10),
    CurveData(RING, 3, {3: rat(1)}, {}, {1: rat(1), 2: rat(1)}, {}, 10)]


def test_complete_psi_examples():
    c1, c2, c3 = HAND_PSI_CURVES
    assert c1.psi_at(2, 2) == rat("-9/2")
    assert not c1.psi_at(0, 0)
    assert c2.psi_at(2, 1) == rat(-5)
    assert c3.psi_at(2, 1) == rat(-1)


@pytest.mark.parametrize(
    "curve", [rich_curve(), irregular_curve()] + HAND_PSI_CURVES,
    ids=["rich", "irregular", "hand1", "hand2", "hand3"])
def test_psi_at_solves_pairing_constraints(curve):
    top = curve.max_polarization_index()
    indices = range(-1, top + 4)
    zero = RING.zero()
    assert curve.psi_at(0, 0) == zero
    for k in indices:
        for l in indices:
            val = curve.psi_at(k, l)
            if min(k, l) < 0 or max(k, l) > top:
                assert val == zero, (k, l)
                continue
            # the free data is read back as given
            if k == 0 < l:
                assert val == curve.psi0.get(l, zero), (k, l)
            if 1 <= k < l:
                assert val == curve.psiA.get((k, l), zero), (k, l)
            assert val + curve.psi_at(l, k) \
                + curve.psi_at(0, k) * curve.psi_at(0, l) == zero, (k, l)


def test_delta_omega():
    bases = CurveBases(rich_curve())
    # doubled odd part only: 2 z^2 dz + 4/3 z^4 dz
    assert coeff(bases.delta_omega, 2) == rat(2)
    assert coeff(bases.delta_omega, 4) == rat("4/3")
    assert not coeff(bases.delta_omega, 3)
    assert not coeff(bases.delta_omega, 0)


def test_dxi_minus_trivial():
    bases = CurveBases(airy_curve())
    dxi2 = bases.dxi_minus(2)
    assert coeff(dxi2, -3) == RING.one()
    assert all(not coeff(dxi2, k) for k in range(-2, 10))


# Basis getters called below their least index: dxi_plus and eta_plus
# start at 1, dxi_minus at 1 and eta_minus at 0 (the zero mode)
BAD_BASIS_INDICES = [("dxi_plus", 0), ("dxi_minus", 0), ("dxi_minus", -3),
                     ("eta_plus", 0), ("eta_minus", -1)]


def test_basis_index_below_range_is_refused():
    bases = CurveBases(airy_curve(12))
    for name, l in BAD_BASIS_INDICES:
        with pytest.raises(ValueError, match="needs an index >="):
            getattr(bases, name)(l)


def test_basis_index_below_range_is_refused_under_optimized_python():
    # the checks must not be asserts, which `python -O` strips
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        superrec.__file__)))
    script = ("from superrec.curve import CurveBases, CurveData\n"
              "from superrec.scalars import Ring\n"
              "ring = Ring([])\n"
              "bases = CurveBases(CurveData(ring, 3, {3: ring.one()}, {}, "
              "{}, {}, 12))\n"
              f"for name, l in {BAD_BASIS_INDICES!r}:\n"
              "    try:\n"
              "        getattr(bases, name)(l)\n"
              "    except ValueError:\n"
              "        continue\n"
              "    raise SystemExit(f'{name}({l}) returned a series')\n")
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_eta_zero_with_psi0():
    c = CurveData(RING, 3, {3: rat(1)}, {}, {1: rat(7)}, {}, 10)
    bases = CurveBases(c)
    eta0 = bases.eta_zero
    assert eta0.theta == 1 and eta0.dz_weight == 0
    assert coeff(eta0, -1) == RING.one()
    assert coeff(eta0, 0) == rat(7)


def literals(table):
    return {key: val.literal() for key, val in table.items()}


def test_regular_tables_are_pinned():
    assert literals(rich_curve().phi_table) == {
        (1, 1): "1/2", (1, 2): "-3", (2, 1): "-3", (2, 2): "1/5"}
    assert literals(psi_regular(rich_curve())) == {
        (1, 2): "1", (1, 3): "-1/6", (2, 1): "-1", (2, 3): "-4/21",
        (3, 1): "1/6", (3, 2): "4/21", (3, 4): "4", (4, 3): "-4"}
    assert literals(irregular_curve().phi_table) == {
        (1, 1): "1", (1, 3): "2/7", (3, 1): "2/7"}
    assert literals(psi_regular(irregular_curve())) == {
        (1, 2): "-1/4", (1, 4): "1/2", (2, 1): "1/4", (2, 3): "3",
        (2, 4): "-1/4", (3, 2): "-3", (4, 1): "-1/2", (4, 2): "1/4"}


def f0_diagonal_oracle(curve):
    """exponent -> coefficient of omega_{0,2}(z, -z), with dz2 = -dz1,
    minus 1/2 (z d1 h(z, -z) - z d1 h(-z, z)), where h is the function
    multiplying T1 T2 in omega_{0,0|2}; by symbolic differentiation."""
    z, z1, z2 = sympy.symbols("z z1 z2")

    def rational(val):
        q = as_rational(val)
        return sympy.Rational(q.numerator, q.denominator)
    w = 1 / (z1 - z2) ** 2 + sum(
        rational(v) * z1 ** (k - 1) * z2 ** (l - 1)
        for (k, l), v in curve.phi_table.items())
    h = -(z1 + z2) / (2 * z1 * z2 * (z1 - z2)) + sum(
        rational(v) * z1 ** (k - 2) * z2 ** (l - 2)
        for (k, l), v in psi_regular(curve).items())
    d1 = sympy.diff(h, z1)
    diag = -w.subs({z1: z, z2: -z}) - (z * d1.subs({z1: z, z2: -z})
                                       - z * d1.subs({z1: -z, z2: z})) / 2
    poly = sympy.Poly(sympy.cancel(diag * z ** 2), z)
    return {m - 2: Fraction(str(c)) for (m,), c in poly.terms()}


@pytest.mark.parametrize(
    "curve", [airy_curve(), rich_curve(), irregular_curve()],
    ids=["airy", "rich", "irregular"])
def test_f0_diagonal_matches_sympy_oracle(curve):
    diag = CurveBases(curve).f0_diagonal
    assert (diag.dz_weight, diag.theta, diag.trunc, diag.min_exp) \
        == (2, 0, curve.trunc, -2)
    want = f0_diagonal_oracle(curve)
    # the two singular parts give -1/4 z^-2 dz^2 each
    assert coeff(diag, -2) == rat("-1/2")
    assert min(want) == -2
    for k in range(-2, curve.trunc + 1):
        assert coeff(diag, k) == rat(want.get(k, 0)), k


def test_truncation_guard():
    with pytest.raises(TruncationError):
        TrSolver(airy_curve(trunc=5), 6)
    TrSolver(airy_curve(trunc=index_bound(6) + 3 + 2), 6)


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
            assert pairing_B(basis_dxi(bases, k),
                             basis_dxi(bases, l)) == expect, (k, l)
    for k in range(-bound, bound + 1):
        for l in range(-bound, bound + 1):
            expect = RING.one() if k + l == 0 else RING.zero()
            assert pairing_F(basis_eta(bases, k),
                             basis_eta(bases, l)) == expect, (k, l)


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
            assert not projected.coeffs
        elif label == "zero":
            assert projected == bases.eta_zero.scale(half)
        else:
            assert projected == target


def test_fit_roundtrip_on_curve_data():
    curve = rich_curve()
    fitted = fit_parameters(RING, curve.epsilon, omega01(curve),
                            curve.phi_table, psi_regular(curve),
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
    # antisymmetry broken at the fermionic entry of psiA_12
    with pytest.raises(InconsistentPolarization,
                       match=r"not antisymmetric at \(2, 3\)"):
        fit_parameters(RING, 3, omega01, {},
                       {(2, 3): rat(1), (3, 2): rat(1)}, 10)
    # symmetry broken at a bosonic entry off the diagonal
    with pytest.raises(InconsistentPolarization,
                       match=r"not symmetric at \(2, 3\)"):
        fit_parameters(RING, 3, omega01, {(2, 3): rat(1), (3, 2): rat(2)},
                       {}, 10)


def test_sigma_parity_of_omega01():
    curve = rich_curve()
    form = omega01(curve)
    total = form + form.sigma()
    # the sigma-odd (odd-l) part cancels; delta_omega is exactly twice it
    diff = form - form.sigma()
    assert diff == CurveBases(curve).delta_omega
    for k, v in total.coeffs.items():
        assert k % 2 == 1  # only even-l (odd exponent) terms survive
