"""External ground truth for the fermion-free sectors.

The references here share neither the paper's formalism nor either
engine's code: intersection numbers on the moduli space of curves, each
from its own recursion in exact `Fraction`s. On the Airy curve the
bosonic-only solver gives the Witten-Kontsevich numbers (the DVV Virasoro
recursion, Dijkgraaf-Verlinde-Verlinde 1991); on the Bessel curve it gives
Norbury's Theta-class numbers (Do-Norbury arXiv:1608.02781, Norbury
arXiv:1712.03662). The entry F_g(b_1..b_n | ) with b = 2d + 1 equals
(-1)^n prod b_i!! <tau_d_1 .. tau_d_n>_g, and the full engines give 2^g
times it. On super JT the bosonic-only solver gives the Theta-class
integrals against exp((pi^2/2) kappa_1), from the same Theta numbers.
"""

from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial

import pytest

from superrec.airyengine import run_airy, run_bosonic
from superrec.curve import CurveData, required_truncation
from superrec.scalars import Ring
from superrec.trengine import run_tr
from superrec.zoo import ZooSpec, zoo_build, zoo_truncation
from test_scalars import as_rational

RING = Ring([])


def double_factorial(n):
    """n!! for odd n >= -1, with (-1)!! = 1."""
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


class IntersectionNumbers:
    """<tau_d_1 ... tau_d_n>_g from the seeds and one rule for every k >= 0:

    (2k+1)!! <tau_k prod>_g = sum_j (2k+2d_j+2s+1)!!/(2d_j-1)!!
                                  <tau_{k+d_j+s} prod'>_g
        + 1/2 sum_{r+r'=k+s-1} (2r+1)!!(2r'+1)!! [<tau_r tau_r' prod>_{g-1}
              + sum_{g_1+g_2=g, I+J=prod} <tau_r prod_I> <tau_r' prod_J>],

    with shift s = -1 and dimension 3g-3+n for Witten-Kontsevich (at k = 0
    the string equation), and s = 0 and dimension g-1 for the Theta class
    (at k = 0 the dilaton-like rule <tau_0 prod>_g = (2g-2+n) <prod>_g).
    """

    def __init__(self, shift, dimension, seeds):
        self.shift = shift
        self.dimension = dimension
        self.memo = {(g, tuple(ds)): Fraction(value)
                     for (g, ds), value in seeds.items()}

    def __call__(self, g, ds):
        ds = tuple(sorted(ds))
        n = len(ds)
        if g < 0 or 2 * g - 2 + n <= 0 or (ds and ds[0] < 0) \
                or sum(ds) != self.dimension(g, n):
            return Fraction(0)
        key = (g, ds)
        if key not in self.memo:
            self.memo[key] = self._rule(g, ds[0], ds[1:])
        return self.memo[key]

    def _rule(self, g, k, rest):
        s = self.shift
        total = Fraction(0)
        for j, d in enumerate(rest):
            total += Fraction(double_factorial(2 * k + 2 * d + 2 * s + 1),
                              double_factorial(2 * d - 1)) \
                * self(g, (k + d + s,) + rest[:j] + rest[j + 1:])
        for r in range(k + s):
            r2 = k + s - 1 - r
            inner = self(g - 1, (r, r2) + rest)
            for mask in range(1 << len(rest)):
                part1 = tuple(d for pos, d in enumerate(rest)
                              if mask >> pos & 1)
                part2 = tuple(d for pos, d in enumerate(rest)
                              if not mask >> pos & 1)
                for g1 in range(g + 1):
                    inner += self(g1, (r,) + part1) \
                        * self(g - g1, (r2,) + part2)
            total += Fraction(double_factorial(2 * r + 1)
                              * double_factorial(2 * r2 + 1), 2) * inner
        return total / double_factorial(2 * k + 1)


def witten_kontsevich():
    return IntersectionNumbers(
        -1, lambda g, n: 3 * g - 3 + n,
        {(0, (0, 0, 0)): 1, (1, (1,)): Fraction(1, 24)})


def theta_class():
    return IntersectionNumbers(
        0, lambda g, n: g - 1, {(1, (0,)): Fraction(1, 8)})


def expected_entries(numbers, chi_max):
    """{(g, bos, ()): F_g(bos |)} of the bosonic-only solver, over the
    nonzero entries through chi_max."""
    out = {}
    for g in range(chi_max // 2 + 1):
        for n in range(max(3 - 2 * g, 1), chi_max - 2 * g + 1):
            dim = numbers.dimension(g, n)
            if dim < 0:
                continue
            for ds in combinations_with_replacement(range(dim + 1), n):
                value = numbers(g, ds)
                if value:
                    bos = tuple(2 * d + 1 for d in ds)
                    for b in bos:
                        value *= double_factorial(b)
                    out[(g, bos, ())] = (-1) ** n * value
    return out


def fermion_free(tensor, scale_by_genus):
    """{key: rational value} of the entries without fermions, each divided
    by 2^g when scale_by_genus."""
    return {key: as_rational(val) / (2 ** key[0] if scale_by_genus else 1)
            for key, val in tensor.entries.items() if not key[2]}


def airy_curve(trunc):
    return CurveData(RING, 3, {3: RING.one()}, {}, {}, {}, trunc)


def bessel_curve(trunc):
    return CurveData(RING, 1, {1: RING.one()}, {}, {}, {}, trunc)


def test_reference_recursions_give_known_numbers():
    wk = witten_kontsevich()
    assert wk(0, (0, 0, 0, 1)) == 1
    assert wk(1, (1,)) == Fraction(1, 24)
    assert wk(2, (4,)) == Fraction(1, 1152)
    assert wk(2, (2, 3)) == Fraction(29, 5760)
    assert wk(3, (7,)) == Fraction(1, 82944)
    theta = theta_class()
    # F_1(1^n) = (-1)^n (n-1)!/8, F_2(3) = -9/128 and F_3(5) = -225/1024
    assert theta(1, (0, 0, 0)) == Fraction(2, 8)
    assert theta(2, (1,)) == Fraction(3, 128)
    assert theta(3, (2,)) == Fraction(15, 1024)


def test_bosonic_airy_is_witten_kontsevich():
    expected = expected_entries(witten_kontsevich(), 10)
    assert len(expected) == 225
    assert fermion_free(run_bosonic(airy_curve(29), 10), False) == expected


def test_bosonic_bessel_is_the_theta_class():
    expected = expected_entries(theta_class(), 12)
    assert len(expected) == 42
    curve = bessel_curve(required_truncation(1, 12))
    assert fermion_free(run_bosonic(curve, 12), False) == expected


@pytest.mark.parametrize("run", [run_tr, run_airy], ids=["tr", "airy"])
def test_fermion_free_airy_sectors_are_witten_kontsevich(run):
    expected = expected_entries(witten_kontsevich(), 10)
    assert fermion_free(run(airy_curve(29), 10), True) == expected


@pytest.mark.filterwarnings("ignore:the cosine one-form")
@pytest.mark.parametrize("trunc", [zoo_truncation(8),
                                   required_truncation(1, 8)])
def test_fermion_free_super_jt_sectors_are_twice_the_bosonic_ones(trunc):
    """On super JT both full engines give the same tensor, and its
    fermion-free sector is 2^g times the bosonic-only one, through chi 8."""
    curve = zoo_build(ZooSpec("super_jt", trunc=trunc))
    tensor = run_tr(curve, 8)
    assert tensor.entries == run_airy(curve, 8).entries
    ring = curve.ring
    bosonic = {key: val * ring.rational(2 ** key[0])
               for key, val in run_bosonic(curve, 8).entries.items()}
    assert len(bosonic) == 21
    assert {key: val for key, val in tensor.entries.items()
            if not key[2]} == bosonic


def compositions(total):
    """The ordered tuples of positive ints that sum to total."""
    if not total:
        yield ()
    for first in range(1, total + 1):
        for rest in compositions(total - first):
            yield (first,) + rest


class SuperJTNumbers:
    """sqrt2^-(2g-2+n) * int Theta_{g,n} exp((pi^2/2) kappa_1) prod psi^d_i
    in super_jt's ring, where pi2 = pi^2.

    Theta_{g,n+1} = psi_{n+1} pi^* Theta_{g,n} (Norbury arXiv:1712.03662)
    turns each kappa_1 power into Theta numbers with more points:
    int Theta exp(s kappa_1) prod psi^d = sum_m 1/m! sum_{k_1..k_m >= 1}
    prod_j (-1)^(k_j+1) s^(k_j)/k_j! <prod tau_d_i prod tau_k_j>^Theta,
    and the k_j sum to D = g - 1 - sum d_i, so the integral is s^D times
    a rational.
    """

    def __init__(self, ring):
        self.theta = theta_class()
        self.dimension = self.theta.dimension
        self.ring = ring
        self.half_pi2 = ring.symbol("pi2") * ring.rational(Fraction(1, 2))
        self.inv_sqrt2 = ring.symbol("sqrt2").invert()

    def __call__(self, g, ds):
        depth = g - 1 - sum(ds)
        if depth < 0:
            return self.ring.zero()
        total = Fraction(0)
        for ks in compositions(depth):
            weight = Fraction(1, factorial(len(ks)))
            for k in ks:
                weight *= Fraction((-1) ** (k + 1), factorial(k))
            total += weight * self.theta(g, tuple(ds) + ks)
        out = self.ring.rational(total)
        for _ in range(depth):
            out = out * self.half_pi2
        for _ in range(2 * g - 2 + len(ds)):
            out = out * self.inv_sqrt2
        return out


@pytest.mark.filterwarnings("ignore:the cosine one-form")
def test_bosonic_super_jt_is_the_theta_class_with_kappa_1():
    """run_bosonic on super_jt is Theta with kappa_1, through chi 12:

    F_g(b_1..b_n |) = (-1)^n prod b_i!! sqrt2^-(2g-2+n)
                      int Theta_{g,n} exp((pi^2/2) kappa_1) prod psi^d_i.

    The sqrt2 power is the weight of F_g under a constant rescaling of
    omega_{0,1}, which here is sqrt2 cos(pi z) dz. Norbury
    (arXiv:2005.04378) writes the super volumes as V_{g,n}(L) =
    int Theta_{g,n} exp(2 pi^2 kappa_1 + 1/2 sum L_i^2 psi_i) and shows
    that they satisfy the recursion Stanford-Witten (arXiv:1907.03363)
    derive for the volumes of JT supergravity. The exponent here is his
    with pi halved: the kappa_1 part of degree D = g - 1 - sum d_i is
    4^-D times his, so an entry is (-1)^n prod b_i!! sqrt2^-(2g-2+n) 4^-D
    prod (2^d_i d_i!) times the coefficient of prod L_i^(2 d_i) in V_{g,n}.
    Genus zero has no Theta class, and so no entry.
    """
    curve = zoo_build(ZooSpec("super_jt", trunc=14))
    expected = expected_entries(SuperJTNumbers(curve.ring), 12)
    assert len(expected) == 87
    # the dict equality checks both ways: every entry is predicted, and
    # every nonzero prediction is an entry
    assert run_bosonic(curve, 12).entries == expected
