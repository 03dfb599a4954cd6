import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import superrec
from superrec.scalars import NotInvertible, Ring
from superrec.series import FormalSeries, TruncationError, WeightError


RING = Ring([("s", 2)])


def make(coeffs, trunc, dz=0, theta=0):
    return FormalSeries(
        RING, {k: RING.rational(v) for k, v in coeffs.items()},
        trunc, dz, theta)


def test_mul_weights_add():
    a = make({-1: 1}, 5, dz=1)
    b = make({1: 1}, 5, dz=1)
    c = a * b
    assert c.dz_weight == 2 and c.theta == 0
    assert c.coeff(0) == RING.one()


def test_theta_square_is_z_dz():
    t = make({0: 1}, 5, dz=0, theta=1)
    sq = t * t
    assert sq.theta == 0 and sq.dz_weight == 1
    assert sq.coeff(1) == RING.one()
    assert sq.coeff(0).is_zero()


def test_theta_over_z_squared_residue():
    # (1/z T)(1/z T) = z^-2 * z dz = z^-1 dz, residue 1
    a = make({-1: 1}, 5, theta=1)
    assert (a * a).residue() == RING.one()


def test_residue_basic():
    a = make({-1: 3, 0: 2, 1: 1}, 5, dz=1)
    assert a.residue() == RING.rational(3)
    assert make({-2: 1}, 5, dz=1).residue().is_zero()


def test_residue_errors():
    with pytest.raises(WeightError):
        make({-1: 1}, 5, dz=2).residue()
    with pytest.raises(WeightError):
        make({-1: 1}, 5, dz=1, theta=1).residue()
    bad = FormalSeries(RING, {}, -3, 1, 0, min_exp=-5)
    with pytest.raises(TruncationError):
        bad.residue()


def test_invert_monomial():
    a = make({2: 2}, 8, dz=1)
    inv = a.invert()
    assert inv.dz_weight == -1
    assert inv.coeff(-2) == RING.rational(Fraction(1, 2))
    assert (a * inv).coeff(0) == RING.one()


def test_invert_geometric():
    a = make({0: 1, 1: 1}, 6)
    inv = a.invert()
    for k in range(7):
        assert inv.coeff(k) == RING.rational((-1) ** k)


def test_invert_airy_denominator():
    # leading-form difference for the cubic dilaton shift: 2 z^2 dz
    a = make({2: 2}, 9, dz=1)
    inv = a.invert()
    assert inv.trunc == 9 - 4
    assert inv.coeff(-2) == RING.rational(Fraction(1, 2))


def test_invert_errors():
    with pytest.raises(NotInvertible):
        make({}, 5).invert()
    with pytest.raises(NotInvertible):
        make({0: 1}, 5, theta=1).invert()


def test_sigma_examples():
    assert make({2: 1}, 5, dz=1).sigma() == make({2: -1}, 5, dz=1)
    assert make({-1: 1}, 5, theta=1).sigma() == make({-1: -1}, 5, theta=1)
    assert make({-2: 1}, 5, dz=1).sigma() == make({-2: -1}, 5, dz=1)


def test_derive():
    assert make({2: 1}, 5, theta=1).derive() == \
        make({1: 2}, 4, dz=1, theta=1)
    assert make({-1: 1}, 5, theta=1).derive() == \
        make({-2: -1}, 4, dz=1, theta=1)


def test_integrate_roundtrip():
    a = make({-3: 2, 1: 5}, 6, dz=1)
    assert a.integrate().derive() == a


def test_truncation_error_on_unknown_coeff():
    a = make({0: 1}, 3)
    with pytest.raises(TruncationError):
        a.coeff(4)
    assert a.coeff(3).is_zero()


def test_constructor_rejects_bad_parity_and_range():
    with pytest.raises(WeightError):
        make({0: 1}, 3, theta=2)
    with pytest.raises(TruncationError):
        make({4: 1}, 3)
    # min_exp only ever lowers to the lowest exponent held
    assert make({-2: 1}, 3).min_exp == -2
    assert FormalSeries(RING, {1: RING.one()}, 3, min_exp=2).min_exp == 1


def test_constructor_errors_under_optimized_python():
    # these checks guard public inputs, so they must not be asserts, which
    # `python -O` strips
    src = os.path.dirname(os.path.dirname(os.path.abspath(superrec.__file__)))
    code = """
from superrec.scalars import Ring
from superrec.series import FormalSeries, TruncationError, WeightError
ring = Ring([])
for make in (lambda: FormalSeries(ring, {0: ring.one()}, 3, theta=2),
             lambda: FormalSeries(ring, {4: ring.one()}, 3)):
    try:
        make()
    except (TruncationError, WeightError) as exc:
        print(type(exc).__name__)
    else:
        print("accepted")
"""
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["WeightError", "TruncationError"]


def test_results_are_canonical():
    """Internal results skip the constructor's checks, so they must hold
    what it guarantees: nonzero coefficients in [min_exp, trunc]."""
    ring = Ring([("s", 4)])  # (s - 2)(s + 2) = 0
    s = ring.symbol("s")
    a = FormalSeries(ring, {-1: s + 2, 0: s, 2: ring.one()}, 5, 1)
    b = FormalSeries(ring, {1: s - 2, 3: s}, 6, 0, 1)
    for out in (a + a, -a, a.scale(s - 2), a * b, b * b, a.sigma(),
                a.derive(), a - a):
        assert all(out.coeffs.values())
        assert all(out.min_exp <= k <= out.trunc for k in out.coeffs)
    assert a.scale(s - 2).coeffs == {0: s * (s - 2), 2: s - 2}
    assert (a - a).is_zero() and (a - a).min_exp == -1


def test_mul_truncation_rule():
    a = make({1: 1}, 4)
    b = make({2: 1}, 7)
    c = a * b
    assert c.trunc == min(4 + 2, 7 + 1)


coeff_strategy = st.dictionaries(
    st.integers(-4, 4),
    st.fractions(min_value=-5, max_value=5).filter(lambda f: f != 0),
    max_size=4)


@given(coeff_strategy, st.integers(0, 2).map(lambda w: w),
       st.booleans())
def test_sigma_involution(coeffs, dz, theta):
    a = make(coeffs, 6, dz=dz, theta=int(theta))
    assert a.sigma().sigma() == a


@given(coeff_strategy, coeff_strategy, coeff_strategy)
@settings(max_examples=50)
def test_mul_associative_distributive(c1, c2, c3):
    a, b, c = make(c1, 8), make(c2, 8), make(c3, 8)
    lhs = (a * b) * c
    rhs = a * (b * c)
    assert lhs == rhs
    assert a * (b + c) == a * b + a * c


@given(coeff_strategy, coeff_strategy)
@settings(max_examples=50)
def test_sigma_homomorphism(c1, c2):
    a, b = make(c1, 8, dz=1), make(c2, 8, dz=1)
    assert (a * b).sigma() == a.sigma() * b.sigma()


@given(coeff_strategy)
@settings(max_examples=50)
def test_sigma_per_term_sign_vs_substitution(coeffs):
    a = make(coeffs, 8, dz=1)
    sig = a.sigma()
    for k, c in a.coeffs.items():
        assert sig.coeffs.get(k, RING.zero()) == c * ((-1) ** ((k + 1) % 2))


@given(coeff_strategy)
@settings(max_examples=30)
def test_invert_mul_is_one(coeffs):
    a = make(coeffs, 8)
    try:
        inv = a.invert()
    except NotInvertible:
        return
    prod = a * inv
    assert prod.coeff(0) == RING.one()
    for k in range(1, prod.trunc + 1):
        assert prod.coeff(k).is_zero()
