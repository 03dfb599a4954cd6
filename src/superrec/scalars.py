"""Exact coefficient ring: rationals extended by named symbols.

Each symbol may carry a quadratic relation (symbol^2 = rational); symbols
without one are free (transcendental). Values are sparse sums of monomials
with Fraction coefficients, kept in a reduced canonical form: exponents of
relation-bearing symbols are always 0 or 1, and zero coefficients are never
stored.
"""

from __future__ import annotations

import re
from fractions import Fraction


class RingMismatch(Exception):
    pass


class NotInvertible(Exception):
    pass


class ScalarParseError(Exception):
    pass


class Ring:
    """A set of named symbols, each with an optional square relation."""

    def __init__(self, symbols=()):
        # symbols: iterable of (name, square) with square a Fraction or None
        self.squares = {}
        for name, square in symbols:
            if name in self.squares:
                raise ValueError(f"duplicate symbol {name!r}")
            if square is not None:
                square = Fraction(square)
                if square == 0:
                    raise ValueError(f"symbol {name!r} has zero square")
            self.squares[name] = square
        # (monomial, monomial) -> their reduced product and rational factor
        self._products = {}

    def __eq__(self, other):
        return isinstance(other, Ring) and self.squares == other.squares

    def __hash__(self):
        return hash(tuple(sorted(
            (n, s) for n, s in self.squares.items())))

    def __repr__(self):
        return f"Ring({sorted(self.squares.items())})"

    # --- constructors -------------------------------------------------

    def zero(self):
        return _scalar(self, {})

    def one(self):
        return self.rational(1)

    def rational(self, value):
        if value.__class__ is not Fraction:
            value = Fraction(value)
        return _scalar(self, {(): value} if value else {})

    def symbol(self, name):
        if name not in self.squares:
            raise KeyError(f"unknown symbol {name!r}")
        return _scalar(self, {((name, 1),): Fraction(1)})

    def parse(self, text):
        return _parse_scalar(self, text)


# monomial = tuple of (name, exponent) pairs sorted by name, exponents >= 1


def _reduce_monomial(ring, mono, coeff):
    """Apply square relations; return (mono, coeff)."""
    out = []
    for name, exp in mono:
        square = ring.squares.get(name)
        if square is None and name not in ring.squares:
            raise KeyError(f"unknown symbol {name!r}")
        if square is not None and exp >= 2:
            coeff *= square ** (exp // 2)
            exp %= 2
        if exp:
            out.append((name, exp))
    return tuple(sorted(out)), coeff


def _monomial_product(ring, m1, m2):
    """(monomial, factor): m1 * m2 = factor * monomial, reduced by the
    square relations; memoized per ring, factor None when it is 1."""
    out = ring._products.get((m1, m2))
    if out is None:
        merged = dict(m1)
        for name, exp in m2:
            merged[name] = merged.get(name, 0) + exp
        mono, factor = _reduce_monomial(ring, tuple(merged.items()),
                                        Fraction(1))
        out = ring._products[m1, m2] = mono, (None if factor == 1 else factor)
    return out


def _scalar(ring, terms):
    """A Scalar that adopts `terms`, a canonical dict no one else holds."""
    out = object.__new__(Scalar)
    out.ring = ring
    out.terms = terms
    return out


def accumulate(terms, key, value):
    """Add value to terms[key] in place; a zero result leaves no entry."""
    old = terms.get(key)
    if old is not None:
        value = old + value
    if value:
        terms[key] = value
    elif old is not None:
        del terms[key]


class Scalar:
    """An element of the ring: Fraction-linear combination of monomials.

    Operands that carry no symbols take a rational fast path: a product of
    two rationals is one Fraction product, and a product with a rational
    reuses the other operand's monomials; monomials are merged and reduced
    only when both factors carry symbols.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = dict(terms)

    # --- basic queries -------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_rational(self):
        return not self.terms or (len(self.terms) == 1 and () in self.terms)

    def as_rational(self):
        if not self.terms:
            return Fraction(0)
        if self.is_rational():
            return self.terms[()]
        raise ValueError(f"not a rational: {self}")

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            terms = self.terms
            if not terms:
                return other == 0
            return len(terms) == 1 and terms.get(()) == other
        if not isinstance(other, Scalar):
            return NotImplemented
        return ((self.ring is other.ring or self.ring == other.ring)
                and self.terms == other.terms)

    def __hash__(self):
        # a rational (or zero) hashes like its Fraction, as == says it equals
        terms = self.terms
        if not terms:
            return hash(0)
        if len(terms) == 1 and () in terms:
            return hash(terms[()])
        return hash(frozenset(terms.items()))

    # --- arithmetic ----------------------------------------------------

    def _coerce(self, other):
        if other.__class__ is Scalar:
            if other.ring is not self.ring and other.ring != self.ring:
                raise RingMismatch("scalars from different rings")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.rational(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            accumulate(terms, mono, coeff)
        return _scalar(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        return _scalar(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        ring = self.ring
        if other.__class__ is not Scalar:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            if not other:
                return _scalar(ring, {})
            return _scalar(ring, {m: c * other for m, c in self.terms.items()})
        other = self._coerce(other)
        left, right = self.terms, other.terms
        if len(left) == 1 and () in left:
            if len(right) == 1 and () in right:
                return _scalar(ring, {(): left[()] * right[()]})
            c1 = left[()]
            return _scalar(ring, {m: c1 * c for m, c in right.items()})
        if len(right) == 1 and () in right:
            c2 = right[()]
            return _scalar(ring, {m: c * c2 for m, c in left.items()})
        terms = {}
        for m1, c1 in left.items():
            for m2, c2 in right.items():
                if not m1:
                    accumulate(terms, m2, c1 * c2)
                elif not m2:
                    accumulate(terms, m1, c1 * c2)
                else:
                    mono, factor = _monomial_product(ring, m1, m2)
                    coeff = c1 * c2
                    accumulate(terms, mono,
                               coeff if factor is None else coeff * factor)
        return _scalar(ring, terms)

    __rmul__ = __mul__

    def invert(self):
        """Multiplicative inverse where decidable; NotInvertible otherwise.

        Invertible shapes: a nonzero rational; c*M with every symbol in the
        monomial M carrying a square relation; and binomials u + v*M with
        u, v rational, M^2 rational, u^2 - v^2*M^2 != 0.
        """
        if not self.terms:
            raise NotInvertible("zero is not invertible")
        ring = self.ring

        def monomial_square(mono):
            # rational value of M^2, or None if M contains a free symbol
            value = Fraction(1)
            for name, exp in mono:
                square = ring.squares[name]
                if square is None:
                    return None
                value *= square  # exp is 1 in reduced form
            return value

        if len(self.terms) == 1:
            (mono, coeff), = self.terms.items()
            if not mono:
                return ring.rational(1 / coeff)
            square = monomial_square(mono)
            if square is None:
                raise NotInvertible(f"free symbol in {self}")
            # 1/(c*M) = M/(c*M^2)
            return _scalar(ring, {mono: 1 / (coeff * square)})
        if len(self.terms) == 2 and () in self.terms:
            u = self.terms[()]
            mono = next(m for m in self.terms if m != ())
            v = self.terms[mono]
            square = monomial_square(mono)
            if square is None:
                raise NotInvertible(f"free symbol in {self}")
            norm = u * u - v * v * square
            if norm == 0:
                raise NotInvertible(f"zero norm: {self}")
            # (u + vM)(u - vM) = u^2 - v^2 M^2
            return _scalar(ring, {(): u / norm, mono: -v / norm})
        raise NotInvertible(f"shape not invertible: {self}")

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.invert()

    # --- formatting ----------------------------------------------------

    def _products(self):
        """Each term as coeff*name^exp text, in canonical monomial order."""
        parts = []
        for mono in sorted(self.terms, key=lambda m: (len(m), m)):
            factors = [str(self.terms[mono])]
            for name, exp in mono:
                factors.append(name if exp == 1 else f"{name}^{exp}")
            parts.append("*".join(factors))
        return parts

    def __str__(self):
        return (" + ".join(self._products()) or "0").replace("+ -", "- ")

    def __repr__(self):
        return f"Scalar({self})"

    def literal(self):
        """Canonical text form parseable by Ring.parse."""
        return ("+".join(self._products()) or "0").replace("+-", "-")


_TERM_RE = re.compile(
    r"""^\s*
        (?P<coeff>[+-]?\d+(?:/\d+)?)?
        (?P<rest>(?:\s*\*\s*[A-Za-z_][A-Za-z_0-9]*(?:\^\d+)?
                   |\s*[A-Za-z_][A-Za-z_0-9]*(?:\^\d+)?)*)
        \s*$""",
    re.VERBOSE,
)


def _parse_scalar(ring, text):
    text = text.strip().replace("−", "-")
    if not text:
        raise ScalarParseError("empty scalar literal")
    if "." in text:
        raise ScalarParseError(f"decimals not accepted: {text!r}")
    # split into signed terms at top level
    terms = []
    pos = 0
    sign = 1
    if text[0] in "+-":
        sign = -1 if text[0] == "-" else 1
        pos = 1
    start = pos
    while pos <= len(text):
        if pos == len(text) or text[pos] in "+-":
            chunk = text[start:pos]
            if not chunk.strip():
                raise ScalarParseError(f"bad literal: {text!r}")
            terms.append((sign, chunk))
            if pos < len(text):
                sign = -1 if text[pos] == "-" else 1
            start = pos + 1
        pos += 1
    result = ring.zero()
    for sign, chunk in terms:
        match = _TERM_RE.match(chunk)
        if not match:
            raise ScalarParseError(f"bad term {chunk!r} in {text!r}")
        coeff_text = match.group("coeff")
        coeff = Fraction(coeff_text) if coeff_text else Fraction(1)
        mono = {}
        rest = match.group("rest") or ""
        for factor in re.findall(
                r"[A-Za-z_][A-Za-z_0-9]*(?:\^\d+)?", rest):
            if "^" in factor:
                name, exp_text = factor.split("^")
                exp = int(exp_text)
            else:
                name, exp = factor, 1
            if name not in ring.squares:
                raise ScalarParseError(f"unknown symbol {name!r}")
            mono[name] = mono.get(name, 0) + exp
        if not coeff_text and not mono:
            raise ScalarParseError(f"bad term {chunk!r}")
        reduced, value = _reduce_monomial(
            ring, tuple(mono.items()), sign * coeff)
        if value:
            result = result + _scalar(ring, {reduced: value})
    return result
