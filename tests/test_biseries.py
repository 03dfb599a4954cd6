"""Bivariate series tests: the exact division the zoo fits curves with."""

import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from superrec import biseries
from superrec.biseries import BiSeries
from superrec.scalars import NotInvertible, Ring

RATIONAL = Ring([])
SQRT2 = Ring([("sqrt2", 2)])


def random_scalar(ring, rng):
    value = ring.rational(Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
    if ring.squares:
        value = value + ring.symbol("sqrt2") * ring.rational(
            Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
    return value


def random_biseries(ring, rng, trunc, low=0):
    coeffs = {}
    for n in range(low, trunc + 1):
        for i in range(n + 1):
            if rng.random() < 0.7:
                coeffs[(i, n - i)] = random_scalar(ring, rng)
    return BiSeries(ring, coeffs, trunc)


def known(series, trunc):
    return {key: val for key, val in series.coeffs.items()
            if key[0] + key[1] <= trunc}


@pytest.mark.parametrize("ring", [RATIONAL, SQRT2], ids=["Q", "sqrt2"])
@pytest.mark.parametrize("seed", range(6))
def test_quotient_times_divisor_is_the_dividend(ring, seed):
    rng = random.Random(seed)
    low = seed % 3
    a = random_biseries(ring, rng, rng.randint(4, 9), low)
    b = random_biseries(ring, rng, rng.randint(4, 9))
    b = b + BiSeries.constant(ring, 1 + seed, b.trunc)  # a unit b_00
    q = a / b
    assert q.trunc == min(a.trunc, b.trunc + a.min_total())
    assert q.min_total() == a.min_total()
    back = q * b
    assert back.trunc == q.trunc
    assert known(back, q.trunc) == known(a, q.trunc)


@pytest.mark.parametrize("ring", [RATIONAL, SQRT2], ids=["Q", "sqrt2"])
def test_zero_constant_term_is_not_invertible(ring):
    rng = random.Random(3)
    a = random_biseries(ring, rng, 6)
    b = random_biseries(ring, rng, 6, low=1)
    with pytest.raises(NotInvertible):
        a / b


def mirrored(series, sign):
    """c_ij + sign * c_ji: a mirror-symmetric (sign 1) or antisymmetric
    (sign -1) series."""
    coeffs = dict(series.coeffs)
    for (i, j), val in series.coeffs.items():
        coeffs[(j, i)] = coeffs.get((j, i), series.ring.zero()) + (
            val if sign == 1 else -val)
    return BiSeries(series.ring, coeffs, series.trunc)


def is_mirrored(series, sign):
    return all(series.coeff(j, i) == (val if sign == 1 else -val)
               for (i, j), val in series.coeffs.items())


@pytest.mark.parametrize("ring", [RATIONAL, SQRT2], ids=["Q", "sqrt2"])
@pytest.mark.parametrize("sign", [1, -1], ids=["symmetric", "antisymmetric"])
@pytest.mark.parametrize("seed", range(4))
def test_mirrored_quotient(ring, sign, seed):
    """A mirrored dividend over a symmetric divisor: the quotient times the
    divisor is the dividend, and the quotient has the dividend's
    symmetry, with a zero diagonal when antisymmetric."""
    rng = random.Random(seed)
    low = seed % 3
    a = mirrored(random_biseries(ring, rng, rng.randint(5, 10), low), sign)
    b = mirrored(random_biseries(ring, rng, rng.randint(5, 10)), 1)
    b = b + BiSeries.constant(ring, 1 + seed, b.trunc)
    assert a.coeffs and is_mirrored(a, sign) and is_mirrored(b, 1)
    q = a / b
    assert q.trunc == min(a.trunc, b.trunc + a.min_total())
    assert known(q * b, q.trunc) == known(a, q.trunc)
    assert is_mirrored(q, sign)
    if sign == -1:
        assert not any(i == j for i, j in q.coeffs)


def test_mirrored_division_sums_half_the_terms(monkeypatch):
    """A mirrored division makes at most 60% of the coefficient products
    (`mul_into` calls) of the same division with the dividend's mirror
    symmetry broken."""
    rng = random.Random(7)
    a = mirrored(random_biseries(RATIONAL, rng, 14), 1)
    b = mirrored(random_biseries(RATIONAL, rng, 14), 1)
    b = b + BiSeries.constant(RATIONAL, 2, b.trunc)
    broken = dict(a.coeffs)
    broken[(1, 2)] = a.coeff(1, 2) + RATIONAL.one()
    broken = BiSeries(RATIONAL, broken, a.trunc)
    calls = [0]
    counted = biseries.mul_into

    def counting(*args):
        calls[0] += 1
        counted(*args)

    monkeypatch.setattr(biseries, "mul_into", counting)
    counts = []
    for dividend in (a, broken):
        calls[0] = 0
        dividend / b
        counts.append(calls[0])
    assert 0 < counts[0] <= 0.6 * counts[1], counts


@pytest.mark.parametrize("ring", [RATIONAL, SQRT2], ids=["Q", "sqrt2"])
def test_division_by_z1_minus_z2(ring):
    rng = random.Random(5)
    p = random_biseries(ring, rng, 8)
    z1_minus_z2 = BiSeries(ring, {(1, 0): ring.one(),
                                  (0, 1): -ring.one()}, 9)
    product = p * z1_minus_z2
    assert known(product.divide_z1_minus_z2(), 7) == known(p, 7)
    # p(z2, z2) = 1 is a nonzero remainder
    with pytest.raises(NotInvertible, match="not divisible by"):
        (product + BiSeries.constant(ring, 1, product.trunc)) \
            .divide_z1_minus_z2()


def test_non_divisible_by_z1_minus_z2_under_optimized_python():
    # the check must not be an assert, which `python -O` strips
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        biseries.__file__)))
    script = ("from superrec.biseries import BiSeries\n"
              "from superrec.scalars import NotInvertible, Ring\n"
              "ring = Ring([])\n"
              "p = BiSeries(ring, {(1, 1): ring.one()}, 4)\n"
              "try:\n"
              "    p.divide_z1_minus_z2()\n"
              "except NotInvertible:\n"
              "    raise SystemExit(0)\n"
              "raise SystemExit(1)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
