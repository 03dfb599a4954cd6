import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import superrec
from superrec.scalars import NotInvertible, Ring
from superrec.series import FormalSeries, TruncationError, WeightError
from oracles import coeff, integrate, residue


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
    assert coeff(c, 0) == RING.one()


def test_theta_square_is_z_dz():
    t = make({0: 1}, 5, dz=0, theta=1)
    sq = t * t
    assert sq.theta == 0 and sq.dz_weight == 1
    assert coeff(sq, 1) == RING.one()
    assert not coeff(sq, 0)


def test_theta_over_z_squared_residue():
    # (1/z T)(1/z T) = z^-2 * z dz = z^-1 dz, residue 1
    a = make({-1: 1}, 5, theta=1)
    assert residue(a * a) == RING.one()


def test_residue_basic():
    a = make({-1: 3, 0: 2, 1: 1}, 5, dz=1)
    assert residue(a) == RING.rational(3)
    assert not residue(make({-2: 1}, 5, dz=1))


def test_residue_errors():
    with pytest.raises(WeightError):
        residue(make({-1: 1}, 5, dz=2))
    with pytest.raises(WeightError):
        residue(make({-1: 1}, 5, dz=1, theta=1))
    bad = FormalSeries(RING, {}, -3, 1, 0, min_exp=-5)
    with pytest.raises(TruncationError):
        residue(bad)


def test_invert_monomial():
    a = make({2: 2}, 8, dz=1)
    inv = a.invert()
    assert inv.dz_weight == -1
    assert coeff(inv, -2) == RING.rational(Fraction(1, 2))
    assert coeff(a * inv, 0) == RING.one()


def test_invert_geometric():
    a = make({0: 1, 1: 1}, 6)
    inv = a.invert()
    for k in range(7):
        assert coeff(inv, k) == RING.rational((-1) ** k)


def test_invert_airy_denominator():
    # leading-form difference for the cubic dilaton shift: 2 z^2 dz
    a = make({2: 2}, 9, dz=1)
    inv = a.invert()
    assert inv.trunc == 9 - 4
    assert coeff(inv, -2) == RING.rational(Fraction(1, 2))


def test_invert_errors():
    with pytest.raises(NotInvertible):
        make({}, 5).invert()
    with pytest.raises(NotInvertible):
        make({0: 1}, 5, theta=1).invert()
    # a lead coefficient that is not a unit of the ring
    ring = Ring([("t", None)])
    with pytest.raises(NotInvertible):
        FormalSeries(ring, {1: ring.symbol("t"), 2: ring.one()}, 5).invert()


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
    assert integrate(a).derive() == a


def test_truncation_error_on_unknown_coeff():
    a = make({0: 1}, 3)
    with pytest.raises(TruncationError):
        coeff(a, 4)
    assert not coeff(a, 3)


def test_only_the_zero_series_is_falsy():
    # as for a Scalar; (s - 2)(s + 2) = 0 on a ring with s^2 = 4
    ring = Ring([("s", 4)])
    s = ring.symbol("s")
    assert not FormalSeries.zero(RING, 5, dz_weight=1, theta=1)
    assert not make({-1: 1, 2: 3}, 5) - make({-1: 1, 2: 3}, 5)
    assert not FormalSeries(ring, {1: s + 2}, 5).scale(s - 2)
    assert make({3: 1}, 5, dz=1)
    assert FormalSeries(ring, {0: s}, 0, theta=1)


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
    assert not (a - a).coeffs and (a - a).min_exp == -1


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
    assert coeff(prod, 0) == RING.one()
    for k in range(1, prod.trunc + 1):
        assert not coeff(prod, k)


# seeded random series over Q, a ring with a square relation and a ring with
# a free symbol
RANDOM_RINGS = (Ring([]), Ring([("sqrt2", 2)]), Ring([("t", None)]))


def random_scalar(rng, ring, rational=False):
    value = ring.rational(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
    if not rational:
        for name in ring.squares:
            value = value + ring.symbol(name) * ring.rational(
                rng.randint(-3, 3))
    return value


def random_series(rng, ring, lead, trunc, dz, theta):
    """A series with a nonzero rational coefficient at z^lead and up to five
    random ones above it, through trunc."""
    coeffs = {lead: ring.rational(rng.choice([-3, -1, 1, 2, Fraction(1, 3)]))}
    for _ in range(rng.randint(0, 5)):
        coeffs[rng.randint(lead + 1, max(trunc, lead + 1))] = \
            random_scalar(rng, ring)
    return FormalSeries(ring, {k: c for k, c in coeffs.items() if k <= trunc},
                        trunc, dz, theta)


def test_sigma_is_a_ring_homomorphism_on_every_weight_and_parity():
    """sigma(a.b) = sigma(a).sigma(b) with the same trunc and min_exp, for
    every parity (T.T = z dz) and dz weight: the residue assembly adds the
    mirrored half of its terms as one sigma-image on this identity."""
    rng = random.Random(0)
    parities = set()
    for _ in range(500):
        ring = rng.choice(RANDOM_RINGS)
        a, b = (random_series(rng, ring, lead, lead + rng.randint(0, 8),
                              rng.randint(-1, 2), rng.randint(0, 1))
                for lead in (rng.randint(-4, 4), rng.randint(-4, 4)))
        prod = a * b
        mirrored, image = prod.sigma(), a.sigma() * b.sigma()
        assert mirrored == image
        assert (mirrored.trunc, mirrored.min_exp) == \
            (image.trunc, image.min_exp) == (prod.trunc, prod.min_exp)
        parities.add((a.theta, b.theta))
    assert parities == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_invert_is_the_inverse_on_random_series():
    """a.invert() is z^-lead times the degree-by-degree quotient, known
    through trunc - 2 lead; a times it is the unit through trunc - lead."""
    rng = random.Random(1)
    for i in range(300):
        ring = RANDOM_RINGS[i % 3]
        lead, dz = rng.randint(-3, 4), rng.randint(0, 2)
        trunc = lead + rng.randint(0, 10)
        a = random_series(rng, ring, lead, trunc, dz, 0)
        inv = a.invert()
        assert (inv.trunc, inv.min_exp, inv.dz_weight, inv.theta) == \
            (trunc - 2 * lead, -lead, -dz, 0)
        prod = a * inv
        assert prod.trunc == trunc - lead
        assert prod == FormalSeries.monomial(ring, 1, 0, prod.trunc)
