"""Truncated Laurent series in one variable z over the exact scalar ring.

Each series carries a differential weight (power of dz) and a parity flag
theta in {0,1} marking one factor of the odd half-differential symbol T,
subject to T^2 = z dz. Truncation is tracked, not assumed: coefficients at
exponents above `trunc` are unknown, and any operation that would need one
raises TruncationError.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import NotInvertible, Scalar, accumulate


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

    def is_zero(self):
        return not self.coeffs

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
        trunc = min(self.trunc + other.min_exp, other.trunc + self.min_exp)
        min_exp = self.min_exp + other.min_exp
        coeffs = {}
        for k1, c1 in self.coeffs.items():
            for k2, c2 in other.coeffs.items():
                k = k1 + k2
                if k <= trunc:
                    accumulate(coeffs, k, c1 * c2)
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

    def integrate(self):
        """Antiderivative with zero constant term; removes one dz."""
        if self.dz_weight < 1:
            raise WeightError("integrating a series without a dz factor")
        coeffs = {}
        for k, c in self.coeffs.items():
            if k == -1:
                if c:
                    raise WeightError("nonzero residue has no antiderivative")
                continue
            coeffs[k + 1] = c * Fraction(1, k + 1)
        return FormalSeries(self.ring, coeffs, self.trunc + 1,
                            self.dz_weight - 1, self.theta, self.min_exp + 1)

    def invert(self):
        """Multiplicative inverse up to truncation; weight negated."""
        if self.theta:
            raise NotInvertible("cannot invert an odd-parity series")
        if not self.coeffs:
            raise NotInvertible("zero series")
        lead = min(self.coeffs)
        lead_coeff = self.coeffs[lead]
        inv_lead = lead_coeff.invert()  # may raise NotInvertible
        trunc = self.trunc - 2 * lead
        # a = c z^lead (1 + u); 1/a = z^(-lead)/c * sum (-u)^j
        rel_order = self.trunc - lead  # u known modulo z^(rel_order+1)
        u = {k - lead: inv_lead * c for k, c in self.coeffs.items()
             if k != lead}
        # accumulate geometric series in the 'relative' variable
        acc = {0: self.ring.one()}
        power = {0: self.ring.one()}
        for _ in range(rel_order if u else 0):
            new_power = {}
            for k1, c1 in power.items():
                for k2, c2 in u.items():
                    k = k1 + k2
                    if k <= rel_order:
                        accumulate(new_power, k, -(c1 * c2))
            power = new_power
            if not power:
                break
            for k, c in power.items():
                accumulate(acc, k, c)
        coeffs = {k - lead: inv_lead * c for k, c in acc.items()
                  if k - lead <= trunc}
        return FormalSeries(self.ring, coeffs, trunc, -self.dz_weight, 0,
                            -lead)

    def residue(self):
        """Coefficient of z^-1 dz; requires a plain one-form."""
        if self.dz_weight != 1 or self.theta != 0:
            raise WeightError(
                f"residue needs dz-weight 1, parity 0; got "
                f"{self.dz_weight}, {self.theta}")
        if -1 > self.trunc:
            raise TruncationError("residue coefficient not resolved")
        c = self.coeffs.get(-1)
        return self.ring.zero() if c is None else c

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

