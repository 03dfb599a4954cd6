"""Bivariate series tests: the exact quotients the zoo fits curves with."""

import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from superrec import biseries
from superrec.biseries import BiSeries
from superrec.scalars import NotInvertible, Ring, Scalar
from superrec.series import TruncationError

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


def constant(ring, value, trunc):
    return BiSeries(ring, {(0, 0): ring.rational(value)}, trunc)


def known(series, trunc):
    return {key: val for key, val in series.coeffs.items()
            if key[0] + key[1] <= trunc}


def square(series, rect):
    """The coefficients of series on the square i, j < rect."""
    return {key: val for key, val in series.coeffs.items()
            if key[0] < rect and key[1] < rect}


def times_on_square(q, b, rect):
    """The product of the square quotient q and b, on the square."""
    return square(BiSeries(b.ring, q, 2 * (rect - 1)) * b, rect)


def widest_square(a, b):
    """The largest rect whose square both series know."""
    return min(a.trunc, b.trunc) // 2 + 1


@pytest.mark.parametrize("ring", [RATIONAL, SQRT2], ids=["Q", "sqrt2"])
@pytest.mark.parametrize("seed", range(6))
def test_quotient_times_divisor_is_the_dividend(ring, seed):
    rng = random.Random(seed)
    low = seed % 3
    a = random_biseries(ring, rng, rng.randint(4, 9), low)
    b = random_biseries(ring, rng, rng.randint(4, 9))
    b = b + constant(ring, 1 + seed, b.trunc)  # a unit b_00
    widest = widest_square(a, b)
    for rect in range(widest + 1):
        q = a.quotient_on_square(b, rect)
        assert all(i < rect and j < rect for i, j in q)
        assert all(q.values())
        assert times_on_square(q, b, rect) == square(a, rect)
    assert q and min(i + j for i, j in q) == a.min_total()
    # a wider square reads degrees neither series knows
    with pytest.raises(TruncationError):
        a.quotient_on_square(b, widest + 1)


@pytest.mark.parametrize("ring", [RATIONAL, SQRT2], ids=["Q", "sqrt2"])
def test_zero_constant_term_is_not_invertible(ring):
    rng = random.Random(3)
    a = random_biseries(ring, rng, 6)
    b = random_biseries(ring, rng, 6, low=1)
    for rect in (1, 4):
        with pytest.raises(NotInvertible):
            a.quotient_on_square(b, rect)


def mirrored(series, sign):
    """c_ij + sign * c_ji: a mirror-symmetric (sign 1) or antisymmetric
    (sign -1) series."""
    coeffs = dict(series.coeffs)
    for (i, j), val in series.coeffs.items():
        coeffs[(j, i)] = coeffs.get((j, i), series.ring.zero()) + (
            val if sign == 1 else -val)
    return BiSeries(series.ring, coeffs, series.trunc)


def is_mirrored(coeffs, sign):
    return all(coeffs.get((j, i)) == (val if sign == 1 else -val)
               for (i, j), val in coeffs.items())


@pytest.mark.parametrize("ring", [RATIONAL, SQRT2], ids=["Q", "sqrt2"])
@pytest.mark.parametrize("sign", [1, -1], ids=["symmetric", "antisymmetric"])
@pytest.mark.parametrize("seed", range(4))
def test_mirrored_quotient(ring, sign, seed):
    """A mirrored dividend over a symmetric divisor: the quotient times the
    divisor is the dividend on the square, and the quotient has the
    dividend's symmetry, with a zero diagonal when antisymmetric."""
    rng = random.Random(seed)
    low = seed % 3
    a = mirrored(random_biseries(ring, rng, rng.randint(5, 10), low), sign)
    b = mirrored(random_biseries(ring, rng, rng.randint(5, 10)), 1)
    b = b + constant(ring, 1 + seed, b.trunc)
    assert a.coeffs and is_mirrored(a.coeffs, sign) \
        and is_mirrored(b.coeffs, 1)
    rect = widest_square(a, b)
    q = a.quotient_on_square(b, rect)
    assert q and all(q.values())
    assert times_on_square(q, b, rect) == square(a, rect)
    assert is_mirrored(q, sign)
    if sign == -1:
        assert not any(i == j for i, j in q)


def test_mirrored_division_sums_half_the_terms(monkeypatch):
    """A mirrored division makes at most 60% of the coefficient products
    (`mul_into` calls) of the same division with the dividend's mirror
    symmetry broken, and the same quotient on the mirrored half."""
    rng = random.Random(7)
    a = mirrored(random_biseries(RATIONAL, rng, 18), 1)
    b = mirrored(random_biseries(RATIONAL, rng, 18), 1)
    b = b + constant(RATIONAL, 2, b.trunc)
    broken = dict(a.coeffs)
    broken[(9, 8)] = a.coeff(9, 8) + RATIONAL.one()
    broken = BiSeries(RATIONAL, broken, a.trunc)
    calls = [0]
    counted = biseries.mul_into

    def counting(*args):
        calls[0] += 1
        counted(*args)

    monkeypatch.setattr(biseries, "mul_into", counting)
    counts, quotients = [], []
    for dividend in (a, broken):
        calls[0] = 0
        quotients.append(dividend.quotient_on_square(b, 10))
        counts.append(calls[0])
    assert 0 < counts[0] <= 0.6 * counts[1], counts
    # the broken coefficient moves q only at (9, 8) and (9, 9)
    moved = [(9, 8), (9, 9)]
    kept = [{key: val for key, val in q.items() if key not in moved}
            for q in quotients]
    assert kept[0] == kept[1]
    assert quotients[1][9, 8] != quotients[0][9, 8]


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
        (product + constant(ring, 1, product.trunc)) \
            .divide_z1_minus_z2()


def z1_minus_z2(ring, trunc):
    return BiSeries(ring, {(1, 0): ring.one(), (0, 1): -ring.one()}, trunc)


@pytest.mark.parametrize("ring", [RATIONAL, SQRT2], ids=["Q", "sqrt2"])
@pytest.mark.parametrize("sign", [0, 1, -1],
                         ids=["plain", "symmetric", "antisymmetric"])
def test_double_division_by_z1_minus_z2(ring, sign):
    """p (z1 - z2)^2 divides back to p by two divisions and by one double
    division, on the triangle known; a symmetric p takes the double
    division's mirrored path."""
    rng = random.Random(13)
    p = random_biseries(ring, rng, 8)
    if sign:
        p = mirrored(p, sign)
    twice = p * z1_minus_z2(ring, 10) * z1_minus_z2(ring, 10)
    assert twice.trunc == 10
    assert known(twice.divide_z1_minus_z2().divide_z1_minus_z2(), 8) \
        == known(twice.divide_z1_minus_z2(2), 8) == known(p, 8)


@pytest.mark.parametrize("ring", [RATIONAL, SQRT2], ids=["Q", "sqrt2"])
def test_divisible_once_but_not_twice(ring):
    """p (z1 - z2) with p(z2, z2) != 0 divides once, and its quotient p
    raises NotInvertible at the next division, as does the double
    division of p (z1 - z2)."""
    rng = random.Random(17)
    p = random_biseries(ring, rng, 8)
    p = BiSeries(ring, p.coeffs | {(0, 0): ring.one()}, p.trunc)
    once = p * z1_minus_z2(ring, 10)
    quotient = once.divide_z1_minus_z2()
    assert known(quotient, 8) == known(p, 8)
    with pytest.raises(NotInvertible, match="not divisible by"):
        quotient.divide_z1_minus_z2()
    with pytest.raises(NotInvertible, match="not divisible by"):
        once.divide_z1_minus_z2(2)


def test_division_by_z1_minus_z2_sums_raw(monkeypatch):
    """The division adds no two Scalars: each anti-diagonal is one raw
    running sum, so no Scalar sum, difference or negation is made."""
    rng = random.Random(11)
    p = random_biseries(SQRT2, rng, 10)
    z1_minus_z2 = BiSeries(SQRT2, {(1, 0): SQRT2.one(),
                                   (0, 1): -SQRT2.one()}, 11)
    product = p * z1_minus_z2
    calls = []
    for attr in ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__"):
        counted = getattr(Scalar, attr)

        def counting(*args, counted=counted, attr=attr):
            calls.append(attr)
            return counted(*args)

        monkeypatch.setattr(Scalar, attr, counting)
    quotient = product.divide_z1_minus_z2()
    assert calls == []
    monkeypatch.undo()
    assert known(quotient, 10) == known(p, 10)


def test_non_divisible_by_z1_minus_z2_under_optimized_python():
    # the check must not be an assert, which `python -O` strips
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        biseries.__file__)))
    script = ("from superrec.biseries import BiSeries\n"
              "from superrec.scalars import NotInvertible, Ring\n"
              "ring = Ring([])\n"
              "p = BiSeries(ring, {(1, 1): ring.one()}, 4)\n"
              "once = BiSeries(ring, {(1, 0): ring.one(), "
              "(0, 1): -ring.one()}, 4)\n"
              "quotient = once.divide_z1_minus_z2()\n"
              "for divide in (p.divide_z1_minus_z2, "
              "quotient.divide_z1_minus_z2,\n"
              "               lambda: once.divide_z1_minus_z2(2)):\n"
              "    try:\n"
              "        divide()\n"
              "    except NotInvertible:\n"
              "        continue\n"
              "    raise SystemExit(1)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


# Each invalid placement, as a statement that raises and the error it must
# raise: a negative exponent, and a univariate series with a dz weight, an
# odd parity or a negative lowest exponent.
INVALID_SERIES = {
    "negative_exponent": (
        "BiSeries(ring, {(-1, 2): ring.one()}, 4)", "ValueError"),
    "dz_weight": (
        "BiSeries.from_univariate(FormalSeries(ring, {0: ring.one()}, 4, 1),"
        " 1, 4)", "WeightError"),
    "parity": (
        "BiSeries.from_univariate(FormalSeries(ring, {0: ring.one()}, 4, 0,"
        " 1), 2, 4)", "WeightError"),
    "min_exp": (
        "BiSeries.from_univariate(FormalSeries(ring, {-1: ring.one()}, 4),"
        " 1, 4)", "ValueError"),
}


@pytest.mark.parametrize("case", sorted(INVALID_SERIES))
def test_invalid_series_raise_under_optimized_python(case):
    # typed errors, not asserts, which `python -O` strips
    statement, error = INVALID_SERIES[case]
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        biseries.__file__)))
    script = ("from superrec.biseries import BiSeries\n"
              "from superrec.scalars import Ring\n"
              "from superrec.series import FormalSeries, WeightError\n"
              "ring = Ring([])\n"
              "try:\n"
              f"    {statement}\n"
              f"except {error}:\n"
              "    raise SystemExit(0)\n"
              "raise SystemExit(1)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
