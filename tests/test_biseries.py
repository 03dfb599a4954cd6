"""Bivariate series tests: the exact division the zoo fits curves with."""

import random
from fractions import Fraction

import pytest

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
