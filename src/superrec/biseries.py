"""Bivariate power series truncated by total degree.

Used by the curve zoo to expand closed-form bilinear differentials around
the origin and peel off their fixed singular parts. Exponents are
nonnegative; the coefficient at (i, j) is unknown when i + j > trunc.
"""

from __future__ import annotations

from .scalars import NotInvertible, accumulate, finish_each, mul_into


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
            accumulate(coeffs, key, val)
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
        ring = self.ring
        trunc = min(self.trunc + other.min_total(),
                    other.trunc + self.min_total())
        sums = {}  # (i, j) -> raw sum of its products
        for (i1, j1), c1 in self.coeffs.items():
            left = c1.terms
            for (i2, j2), c2 in other.coeffs.items():
                key = (i1 + i2, j1 + j2)
                if key[0] + key[1] > trunc:
                    continue
                acc = sums.get(key)
                if acc is None:
                    acc = sums[key] = {}
                mul_into(ring, acc, left, c2.terms)
        return BiSeries(ring, finish_each(ring, sums), trunc)

    def __truediv__(self, other):
        """Exact quotient q = self / other for an invertible constant term
        b_00 of other, degree by degree: q_n = b_00^-1 (a_n - sum_{k>=1}
        b_k q_(n-k)). Known through the degree a product q * other would
        be known through.

        For a mirror-symmetric other (b_ij = b_ji) and a mirror-symmetric
        or antisymmetric self, q has self's symmetry: only its coefficients
        z1^i z2^j with i <= j are summed, and the others mirrored."""
        inv = other.coeff(0, 0).invert()  # may raise NotInvertible
        low = self.min_total()
        trunc = min(self.trunc, other.trunc + low)
        sign = _mirror_sign(self) if _mirror_sign(other) == 1 else 0
        # degree n -> {i: coefficient of z1^i z2^(n-i)}, i ascending: the
        # terms -b_k / b_00 of degree k >= 1, the dividend and the quotient
        rest = _by_degree({key: -(val * inv)
                           for key, val in other.coeffs.items() if any(key)})
        a = _by_degree(self.coeffs)
        ring = self.ring
        q = {}
        for n in range(low, trunc + 1):
            top = n // 2 if sign else n  # the largest i summed
            # i -> raw sum of the coefficient of z1^i z2^(n-i)
            term = {i: dict((val * inv).terms)
                    for i, val in a.get(n, {}).items() if i <= top}
            for k, b_k in rest.items():
                q_rest = q.get(n - k)
                if not q_rest:
                    continue
                for i1, c1 in b_k.items():
                    if i1 > top:
                        break
                    left = c1.terms
                    for i2, c2 in q_rest.items():
                        if i2 > top - i1:
                            break
                        acc = term.get(i1 + i2)
                        if acc is None:
                            acc = term[i1 + i2] = {}
                        mul_into(ring, acc, left, c2.terms)
            term = finish_each(ring, term)
            part = q[n] = {i: term[i] for i in sorted(term)}
            if sign:
                part.update({n - i: val if sign == 1 else -val
                             for i, val in reversed(part.items())
                             if 2 * i < n})
        return BiSeries(self.ring, {(i, n - i): val
                                    for n, part in q.items()
                                    for i, val in part.items()}, trunc)

    def divide_z1_minus_z2(self):
        """Exact quotient by (z1 - z2); raises NotInvertible unless the
        remainder p(z2, z2) vanishes.

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
                accumulate(term, j + 1, val)
            if i == 0:
                # remainder = p(z2, z2) must vanish: term is the remainder
                if term:
                    raise NotInvertible("not divisible by (z1 - z2)")
                break
            carry = term
            for j, val in carry.items():
                if val:
                    quotient[(i - 1, j)] = val
        return BiSeries(self.ring, quotient, self.trunc - 1)

    def coeff(self, i, j):
        c = self.coeffs.get((i, j))
        return self.ring.zero() if c is None else c


def _by_degree(coeffs):
    """Total degree n -> {i: coefficient of z1^i z2^(n-i)}, i ascending."""
    out = {}
    for i, j in sorted(coeffs):
        out.setdefault(i + j, {})[i] = coeffs[(i, j)]
    return out


def _mirror_sign(series):
    """1 if series is mirror-symmetric (c_ij = c_ji), -1 if antisymmetric
    (c_ij = -c_ji), else 0; the zero series counts as symmetric."""
    coeffs = series.coeffs
    if all(coeffs.get((j, i)) == val for (i, j), val in coeffs.items()):
        return 1
    if all(i != j and coeffs.get((j, i)) == -val
           for (i, j), val in coeffs.items()):
        return -1
    return 0
