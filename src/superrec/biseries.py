"""Bivariate power series truncated by total degree.

Used by the curve zoo to expand closed-form bilinear differentials around
the origin and peel off their fixed singular parts. Exponents are
nonnegative; the coefficient at (i, j) is unknown when i + j > trunc.
"""

from __future__ import annotations

import itertools
from math import lcm

from .scalars import NotInvertible, add_into, finish, finish_each, mul_into
from .series import TruncationError, WeightError


class BiSeries:
    """sum c_{ij} z1^i z2^j with c_{ij} unknown for i + j > trunc."""

    __slots__ = ("ring", "coeffs", "trunc")

    def __init__(self, ring, coeffs, trunc):
        self.ring = ring
        self.coeffs = {key: val for key, val in coeffs.items()
                       if val and key[0] + key[1] <= trunc}
        if any(i < 0 or j < 0 for i, j in self.coeffs):
            raise ValueError("bivariate series with a negative exponent")
        self.trunc = trunc

    @classmethod
    def zero(cls, ring, trunc):
        return cls(ring, {}, trunc)

    @classmethod
    def from_univariate(cls, fs, var, trunc):
        """Place a dz^0, theta-free series with exponents >= 0 in slot var."""
        if fs.dz_weight or fs.theta:
            raise WeightError(
                f"placing a series of weight {fs.dz_weight} and parity "
                f"{fs.theta} in a bivariate series")
        if fs.min_exp < 0:
            raise ValueError(
                f"placing a series from exponent {fs.min_exp} in a "
                f"bivariate series")
        coeffs = {}
        for k, c in fs.coeffs.items():
            key = (k, 0) if var == 1 else (0, k)
            coeffs[key] = c
        return cls(fs.ring, coeffs, min(trunc, fs.trunc))

    def min_total(self):
        return min((i + j for i, j in self.coeffs), default=self.trunc + 1)

    def __add__(self, other):
        trunc = min(self.trunc, other.trunc)
        sums = {}
        for series in (self, other):
            for key, val in series.coeffs.items():
                if key[0] + key[1] <= trunc:
                    add_into(sums.setdefault(key, {}), val.terms)
        return BiSeries(self.ring, finish_each(self.ring, sums), trunc)

    def __neg__(self):
        return BiSeries(self.ring, {k: -v for k, v in self.coeffs.items()},
                        self.trunc)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, scalar):
        return BiSeries(self.ring,
                        {k: scalar * v for k, v in self.coeffs.items()},
                        self.trunc)

    def __mul__(self, other):
        ring = self.ring
        trunc = min(self.trunc + other.min_total(),
                    other.trunc + self.min_total())
        sums = {}  # (i, j) -> raw sum of its products
        for (i1, j1), c1 in self.coeffs.items():
            left = c1.terms.items()
            for (i2, j2), c2 in other.coeffs.items():
                key = (i1 + i2, j1 + j2)
                if key[0] + key[1] > trunc:
                    continue
                acc = sums.get(key)
                if acc is None:
                    acc = sums[key] = {}
                mul_into(ring, acc, left, c2.terms.items())
        return BiSeries(ring, finish_each(ring, sums), trunc)

    def quotient_on_square(self, other, rect):
        """The exact quotient q = self / other on the square i, j < rect,
        as {(i, j): Scalar} with no zero stored, for an invertible constant
        term b_00 of other.

        q_ij = b_00^-1 (a_ij - sum b_kl q_(i-k, j-l)) reads only indices at
        or below (i, j) in both coordinates, so the square is exact once
        both series are known through total degree 2 (rect - 1). For a
        mirror-symmetric other (b_ij = b_ji) and a mirror-symmetric or
        antisymmetric self, q has self's symmetry: only its coefficients
        with i <= j are summed, and the others mirrored."""
        inv = other.coeff(0, 0).invert()  # may raise NotInvertible
        known = min(self.trunc, other.trunc)
        if 2 * (rect - 1) > known:
            raise TruncationError(
                f"the square i, j < {rect} is past truncation {known}")
        a = self.coeffs
        sign = _mirror_sign(a, rect) if _mirror_sign(other.coeffs, rect) == 1 \
            else 0
        ring = self.ring
        # row k -> [(l, terms of b_kl)] for (k, l) != (0, 0) in the square,
        # l ascending
        rest = [[] for _ in range(rect)]
        for (k, l), val in sorted(other.coeffs.items()):
            if (k or l) and k < rect and l < rect:
                rest[k].append((l, val.terms.items()))
        q = [[None] * rect for _ in range(rect)]
        # column by column, so every q_(i-k, j-l) is known when read
        for j in range(rect):
            for i in range(j + 1 if sign else rect):
                acc = {}
                if (i, j) in a:
                    add_into(acc, a[i, j].terms)
                for k in range(i + 1):
                    row = q[i - k]
                    for l, left in rest[k]:
                        if l > j:
                            break
                        if row[j - l] is not None:
                            mul_into(ring, acc, left,
                                     row[j - l].terms.items(), -1)
                val = finish(ring, acc)
                if val is not None:
                    val = q[i][j] = val * inv
                    if sign and i != j:
                        q[j][i] = val if sign == 1 else -val
        return {(i, j): val for i, row in enumerate(q)
                for j, val in enumerate(row) if val is not None}

    def divide_z1_minus_z2(self, times=1):
        """Exact quotient by (z1 - z2)^times; raises NotInvertible unless
        each of the times divisions leaves no remainder.

        p = (z1 - z2) q reads p_ij = q_(i-1, j) - q_(i, j-1), so q_ab =
        sum_(i > a) p_(i, a+b+1-i): a running sum down each anti-diagonal of
        p from its z1^n end, whose full sum (down to i = 0) is the remainder
        p(z2, z2) at degree n and must vanish. The next division runs the
        same sum over this one. Each anti-diagonal is summed monomial by
        monomial in ints over the lcm of its denominators, and only the last
        quotient is finished.

        Truncation drops by times (unknown top coefficients would leak into
        every total degree >= trunc of the quotient).
        """
        # degree n -> monomial -> {i: the (numerator, denominator) at
        # z1^i z2^(n-i)}
        diagonals = {}
        for (i, j), val in self.coeffs.items():
            by_mono = diagonals.setdefault(i + j, {})
            for mono, coeff in val.terms.items():
                by_mono.setdefault(mono, {})[i] = coeff
        columns = []  # (n, monomial, denominator, ints from z1^n to z2^n)
        for n, by_mono in diagonals.items():
            for mono, column in by_mono.items():
                den = lcm(*(d for _, d in column.values()))
                ints = [0] * (n + 1)
                for i, (num, d) in column.items():
                    ints[n - i] = num * (den // d)
                columns.append((n, mono, den, ints))
        # (z1 - z2)^times is mirror-symmetric for an even times, and so is
        # the quotient of a mirror-symmetric p: only its coefficients with
        # b <= a are finished, and the others mirrored
        mirror = times % 2 == 0 and all(
            ints == ints[::-1] for *_, ints in columns)
        quotient = {}  # (a, b) -> raw sum of one bucket per monomial
        for n, mono, den, sums in columns:
            for t in range(times):
                sums = list(itertools.accumulate(sums))
                # the sum down to i = 0 is the remainder
                if sums and sums.pop():
                    raise NotInvertible(
                        f"not divisible by (z1 - z2)^{t + 1}")
            # sums[b] is the quotient at z1^(n - times - b) z2^b
            if mirror:
                del sums[(len(sums) + 1) // 2:]
            for b, val in enumerate(sums):
                if val:
                    key = (n - times - b, b)
                    acc = quotient.get(key)
                    if acc is None:
                        acc = quotient[key] = {}
                    acc[mono] = {den: val}
        coeffs = finish_each(self.ring, quotient)
        if mirror:
            for (a, b), val in list(coeffs.items()):
                coeffs[b, a] = val
        return BiSeries(self.ring, coeffs, self.trunc - times)

    def coeff(self, i, j):
        c = self.coeffs.get((i, j))
        return self.ring.zero() if c is None else c


def _mirror_sign(coeffs, rect):
    """1 if the coefficients (i, j) -> c_ij on the square i, j < rect are
    mirror-symmetric (c_ij = c_ji), -1 if antisymmetric (c_ij = -c_ji),
    else 0; no coefficient counts as symmetric. Each pair is compared
    once, term by term."""
    symmetric = antisymmetric = True
    for (i, j), val in coeffs.items():
        if i >= rect or j >= rect:
            continue
        mirror = coeffs.get((j, i))
        if mirror is None:
            return 0
        if i > j:
            continue  # compared as the mirror of (j, i)
        terms, mirror = val.terms, mirror.terms
        symmetric = symmetric and terms == mirror
        antisymmetric = antisymmetric and i != j \
            and len(terms) == len(mirror) and all(
                mirror.get(mono) == (-n, d) for mono, (n, d) in terms.items())
        if not (symmetric or antisymmetric):
            return 0
    return 1 if symmetric else -1
