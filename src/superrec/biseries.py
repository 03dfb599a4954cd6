"""Bivariate power series truncated by total degree.

Used by the curve zoo to expand closed-form bilinear differentials around
the origin and peel off their fixed singular parts. Exponents are
nonnegative; the coefficient at (i, j) is unknown when i + j > trunc.
"""

from __future__ import annotations


class BiSeries:
    """sum c_{ij} z1^i z2^j with c_{ij} unknown for i + j > trunc."""

    __slots__ = ("ring", "coeffs", "trunc")

    def __init__(self, ring, coeffs, trunc):
        self.ring = ring
        self.coeffs = {key: val for key, val in coeffs.items()
                       if val and key[0] + key[1] <= trunc}
        assert all(i >= 0 and j >= 0 for i, j in self.coeffs)
        self.trunc = trunc

    @classmethod
    def zero(cls, ring, trunc):
        return cls(ring, {}, trunc)

    @classmethod
    def constant(cls, ring, value, trunc):
        return cls(ring, {(0, 0): ring.rational(value)
                          if not hasattr(value, "ring") else value}, trunc)

    @classmethod
    def from_univariate(cls, fs, var, trunc):
        """Place a dz^0, theta-free series with exponents >= 0 in slot var."""
        assert fs.dz_weight == 0 and fs.theta == 0 and fs.min_exp >= 0
        coeffs = {}
        for k, c in fs.coeffs.items():
            key = (k, 0) if var == 1 else (0, k)
            coeffs[key] = c
        return cls(fs.ring, coeffs, min(trunc, fs.trunc))

    def min_total(self):
        return min((i + j for i, j in self.coeffs), default=self.trunc + 1)

    def __add__(self, other):
        trunc = min(self.trunc, other.trunc)
        coeffs = {k: v for k, v in self.coeffs.items() if k[0] + k[1] <= trunc}
        for key, val in other.coeffs.items():
            if key[0] + key[1] > trunc:
                continue
            new = coeffs.get(key, self.ring.zero()) + val
            if new:
                coeffs[key] = new
            else:
                coeffs.pop(key, None)
        return BiSeries(self.ring, coeffs, trunc)

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
        trunc = min(self.trunc + other.min_total(),
                    other.trunc + self.min_total())
        coeffs = {}
        for (i1, j1), c1 in self.coeffs.items():
            for (i2, j2), c2 in other.coeffs.items():
                key = (i1 + i2, j1 + j2)
                if key[0] + key[1] > trunc:
                    continue
                new = coeffs.get(key, self.ring.zero()) + c1 * c2
                if new:
                    coeffs[key] = new
                else:
                    coeffs.pop(key, None)
        return BiSeries(self.ring, coeffs, trunc)

    def divide_z1_minus_z2(self):
        """Exact quotient by (z1 - z2); requires a zero diagonal.

        Truncation drops by one (unknown top coefficients would leak into
        every total degree >= trunc of the quotient).
        """
        # collect as polynomials in z1 over z2
        by_z1 = {}
        for (i, j), val in self.coeffs.items():
            by_z1.setdefault(i, {})[j] = val
        max_i = max(by_z1, default=-1)
        quotient = {}
        carry = {}  # current q_i as dict j -> Scalar, built downwards
        for i in range(max_i, -1, -1):
            # q_{i-1} relation: p_i = q_{i-1} - z2 * q_i  =>
            # q_{i-1} = p_i + z2 * q_i ; here carry holds q_i
            term = dict(by_z1.get(i, {}))
            for j, val in carry.items():
                new = term.get(j + 1, self.ring.zero()) + val
                if new:
                    term[j + 1] = new
                else:
                    term.pop(j + 1, None)
            if i == 0:
                # remainder = p(z2, z2) must vanish: term is the remainder
                assert not term, "not divisible by (z1 - z2)"
                break
            carry = term
            for j, val in carry.items():
                if val:
                    quotient[(i - 1, j)] = val
        return BiSeries(self.ring, quotient, self.trunc - 1)

    def coeff(self, i, j):
        return self.coeffs.get((i, j), self.ring.zero())
