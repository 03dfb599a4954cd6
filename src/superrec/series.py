"""Truncated Laurent series in one variable z over the exact scalar ring.

Each series carries a differential weight (power of dz) and a parity flag
theta in {0,1} marking one factor of the odd half-differential symbol T,
subject to T^2 = z dz. Truncation is tracked, not assumed: coefficients at
exponents above `trunc` are unknown, and any operation that would need one
raises TruncationError.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import (NotInvertible, Scalar, accumulate, finish,
                      finish_each, mul_into)


class TruncationError(Exception):
    pass


class WeightError(Exception):
    pass


def _series(ring, coeffs, trunc, dz_weight, theta, min_exp):
    """A FormalSeries that adopts `coeffs` unchecked.

    For results of the series operations only: every coefficient is
    nonzero and its exponent lies in [min_exp, trunc].
    """
    out = object.__new__(FormalSeries)
    out.ring = ring
    out.coeffs = coeffs
    out.trunc = trunc
    out.dz_weight = dz_weight
    out.theta = theta
    out.min_exp = min_exp
    return out


class FormalSeries:
    """Sum of c_k * z^k * dz^w * T^t for k in [min_exp, trunc]."""

    __slots__ = ("ring", "coeffs", "min_exp", "trunc", "dz_weight", "theta")

    def __init__(self, ring, coeffs, trunc, dz_weight=0, theta=0,
                 min_exp=None):
        if theta not in (0, 1):
            raise WeightError(f"parity must be 0 or 1, got {theta!r}")
        self.ring = ring
        self.coeffs = {k: c for k, c in coeffs.items() if c}
        self.trunc = trunc
        self.dz_weight = dz_weight
        self.theta = theta
        if min_exp is None:
            min_exp = min(self.coeffs) if self.coeffs else trunc + 1
        self.min_exp = min(min_exp,
                           min(self.coeffs) if self.coeffs else min_exp)
        # min_exp is at most the lowest exponent, so only trunc can fail
        if self.coeffs and max(self.coeffs) > trunc:
            raise TruncationError(
                f"coefficient at exponent {max(self.coeffs)} beyond "
                f"truncation {trunc}")

    # --- constructors --------------------------------------------------

    @classmethod
    def zero(cls, ring, trunc, dz_weight=0, theta=0):
        return cls(ring, {}, trunc, dz_weight, theta)

    @classmethod
    def monomial(cls, ring, coeff, exp, trunc, dz_weight=0, theta=0):
        if isinstance(coeff, (int, Fraction)):
            coeff = ring.rational(coeff)
        return cls(ring, {exp: coeff}, trunc, dz_weight, theta)

    def __bool__(self):
        """False on the zero series, as on a zero Scalar."""
        return bool(self.coeffs)

    def coeff(self, exp):
        """Coefficient at z^exp; TruncationError if unknown."""
        if exp > self.trunc:
            raise TruncationError(
                f"coefficient at exponent {exp} beyond truncation "
                f"{self.trunc}")
        c = self.coeffs.get(exp)
        return self.ring.zero() if c is None else c

    # --- ring operations -----------------------------------------------

    def __add__(self, other):
        if not isinstance(other, FormalSeries):
            return NotImplemented
        if (self.dz_weight, self.theta) != (other.dz_weight, other.theta):
            raise WeightError("adding series of different weight/parity")
        trunc = min(self.trunc, other.trunc)
        coeffs = {k: c for k, c in self.coeffs.items() if k <= trunc}
        for k, c in other.coeffs.items():
            if k <= trunc:
                accumulate(coeffs, k, c)
        return _series(self.ring, coeffs, trunc, self.dz_weight, self.theta,
                       min(self.min_exp, other.min_exp))

    def __neg__(self):
        return _series(self.ring, {k: -c for k, c in self.coeffs.items()},
                       self.trunc, self.dz_weight, self.theta, self.min_exp)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, scalar):
        """Multiply by a Scalar, or by an int or Fraction taken as is."""
        if not scalar:
            return FormalSeries.zero(self.ring, self.trunc, self.dz_weight,
                                     self.theta)
        coeffs = {}
        for k, c in self.coeffs.items():
            # s^2 = 4 makes (s - 2)(s + 2) = 0: a product can vanish
            accumulate(coeffs, k, c * scalar)
        return _series(self.ring, coeffs, self.trunc, self.dz_weight,
                       self.theta, self.min_exp)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            return self.scale(other)
        if not isinstance(other, FormalSeries):
            return NotImplemented
        ring = self.ring
        trunc = min(self.trunc + other.min_exp, other.trunc + self.min_exp)
        min_exp = self.min_exp + other.min_exp
        sums = {}  # exponent -> raw sum of its products
        for k1, c1 in self.coeffs.items():
            left = c1.terms
            for k2, c2 in other.coeffs.items():
                k = k1 + k2
                if k <= trunc:
                    acc = sums.get(k)
                    if acc is None:
                        acc = sums[k] = {}
                    mul_into(ring, acc, left, c2.terms)
        coeffs = finish_each(ring, sums)
        if self.theta and other.theta:
            # T*T = z dz: shift every exponent up by one
            coeffs = {k + 1: c for k, c in coeffs.items()}
            return _series(self.ring, coeffs, trunc + 1,
                           self.dz_weight + other.dz_weight + 1, 0,
                           min_exp + 1)
        return _series(self.ring, coeffs, trunc,
                       self.dz_weight + other.dz_weight,
                       self.theta + other.theta, min_exp)

    __rmul__ = __mul__

    def cut(self, top):
        """The series known only through exponent top (itself when it is
        known no further); min_exp is kept."""
        if top >= self.trunc:
            return self
        return _series(self.ring,
                       {k: c for k, c in self.coeffs.items() if k <= top},
                       top, self.dz_weight, self.theta, self.min_exp)

    def sigma(self):
        """Substitute z -> -z (each z and each dz flips sign; T invariant)."""
        flip = self.dz_weight % 2
        coeffs = {k: -c if (k + flip) % 2 else c
                  for k, c in self.coeffs.items()}
        return _series(self.ring, coeffs, self.trunc, self.dz_weight,
                       self.theta, self.min_exp)

    def derive(self):
        """d/dz on the function part; picks up one dz."""
        coeffs = {}
        for k, c in self.coeffs.items():
            if k != 0:
                coeffs[k - 1] = c * k
        return _series(self.ring, coeffs, self.trunc - 1,
                       self.dz_weight + 1, self.theta, self.min_exp - 1)

    def invert(self):
        """Multiplicative inverse up to truncation; weight negated.

        With self = z^lead (a_0 + a_1 z + ...), the inverse is z^-lead
        (b_0 + b_1 z + ...), degree by degree: b_0 = 1/a_0 and b_n = -b_0
        sum_{k>=1} a_k b_(n-k)."""
        if self.theta:
            raise NotInvertible("cannot invert an odd-parity series")
        if not self.coeffs:
            raise NotInvertible("zero series")
        lead = min(self.coeffs)
        inv_lead = self.coeffs[lead].invert()  # may raise NotInvertible
        rest = sorted((k - lead, c) for k, c in self.coeffs.items()
                      if k != lead)
        # a is known to relative degree trunc - lead, and so is b
        ring = self.ring
        b = {0: inv_lead}
        for n in range(1, self.trunc - lead + 1):
            acc = {}
            for k, a_k in rest:
                if k > n:
                    break
                b_rest = b.get(n - k)
                if b_rest is not None:
                    mul_into(ring, acc, a_k.terms, b_rest.terms)
            # b_0 is a unit, so b_n is zero only when the sum is
            total = finish(ring, acc)
            if total is not None:
                b[n] = -(inv_lead * total)
        return _series(self.ring, {n - lead: c for n, c in b.items()},
                       self.trunc - 2 * lead, -self.dz_weight, 0, -lead)

    # --- misc ------------------------------------------------------------

    def __eq__(self, other):
        """Equality of known coefficients, weights and parities.

        Both series must resolve the compared range: equality is over
        [min(min_exp), min(trunc)] and requires identical weight/parity.
        """
        if not isinstance(other, FormalSeries):
            return NotImplemented
        if (self.dz_weight, self.theta) != (other.dz_weight, other.theta):
            return False
        trunc = min(self.trunc, other.trunc)
        mine = {k: c for k, c in self.coeffs.items() if k <= trunc}
        theirs = {k: c for k, c in other.coeffs.items() if k <= trunc}
        return mine == theirs

    def __repr__(self):
        parts = []
        for k in sorted(self.coeffs):
            parts.append(f"({self.coeffs[k]})*z^{k}")
        body = " + ".join(parts) if parts else "0"
        tags = []
        if self.dz_weight:
            tags.append(f"dz^{self.dz_weight}")
        if self.theta:
            tags.append("T")
        return f"<{body} {' '.join(tags)} +O(z^{self.trunc + 1})>"

