"""Exact coefficient ring: rationals extended by named symbols.

Each symbol may carry a quadratic relation (symbol^2 = rational); symbols
without one are free (transcendental). Values are sparse sums of monomials,
each coefficient a reduced (numerator, denominator) int pair with a positive
denominator, kept in a canonical form: exponents of relation-bearing symbols
are always 0 or 1, and zero coefficients are never stored. A sum of any
number of Scalars is one raw sum (add_into, mul_into) and one finish. A
Fraction is made only where a literal is parsed, a rational is taken in
(Ring.rational, the public Scalar constructor) or a rational is hashed.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm


class RingMismatch(Exception):
    pass


class NotInvertible(Exception):
    pass


class ScalarParseError(Exception):
    pass


# a symbol name: the identifier of the literal grammar (see Ring.parse)
_NAME = r"[A-Za-z_][A-Za-z_0-9]*"
_NAME_RE = re.compile(_NAME)


class Ring:
    """A set of named symbols, each with an optional square relation."""

    def __init__(self, symbols=()):
        # symbols: iterable of (name, square) with square a Fraction or None
        self.squares = {}
        for name, square in symbols:
            if not isinstance(name, str) or not _NAME_RE.fullmatch(name):
                raise ValueError(f"symbol name {name!r} is not an "
                                 f"identifier {_NAME}")
            if name in self.squares:
                raise ValueError(f"duplicate symbol {name!r}")
            if square is not None:
                square = Fraction(square)
                if square == 0:
                    raise ValueError(f"symbol {name!r} has zero square")
            self.squares[name] = square
        # (monomial, monomial) -> their reduced product and rational factor
        self._products = {}
        # (kind, label, bos, fer) -> the terms of svir's plain mode on the
        # monomial x^bos theta^fer, filled on first use (see svir._entry)
        self.mode_table = {}

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
        return _scalar(self, {(): (value.numerator, value.denominator)}
                       if value else {})

    def symbol(self, name):
        if name not in self.squares:
            raise KeyError(f"unknown symbol {name!r}")
        return _scalar(self, {((name, 1),): (1, 1)})

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
    square relations; memoized per ring, factor None when it is 1, else
    its (numerator, denominator)."""
    out = ring._products.get((m1, m2))
    if out is None:
        merged = dict(m1)
        for name, exp in m2:
            merged[name] = merged.get(name, 0) + exp
        mono, factor = _reduce_monomial(ring, tuple(merged.items()),
                                        Fraction(1))
        out = ring._products[m1, m2] = mono, (
            None if factor == 1 else (factor.numerator, factor.denominator))
    return out


def _scalar(ring, terms):
    """A Scalar that adopts `terms`, a canonical dict no one else holds."""
    out = object.__new__(Scalar)
    out.ring = ring
    out.terms = terms
    return out


# A raw sum maps each monomial to {denominator: numerator} of plain ints:
# a term n/d is added to bucket d with no gcd, and `finish` reduces each
# monomial's sum with one gcd. Only mul_into, mul_raw_into, add_into,
# finish and finish_each read one; besides the three that add into it,
# only Scalar.invert and BiSeries.divide_z1_minus_z2 write one, a single
# bucket per monomial over a common denominator. mul_raw_into multiplies a
# term dict by a raw sum bucket by bucket, so an inner sum is never
# finished only to be taken apart.


def mul_into(ring, acc, left, right, weight=1, den=1):
    """Add the product of two term listings, (monomial, (numerator,
    denominator)) items such as `terms.items()` of a Scalar or a tuple of
    them, times an int weight and over an int denominator, into the raw
    sum acc, monomial by monomial; right is read once per item of left, so
    it is a view or a tuple, never an iterator, and acc may hold zero sums
    until `finish` adopts it."""
    for m1, (n1, d1) in left:
        n1, d1 = n1 * weight, d1 * den
        for m2, (n2, d2) in right:
            n, d = n1 * n2, d1 * d2
            if not m1:
                mono = m2
            elif not m2:
                mono = m1
            else:
                mono, factor = _monomial_product(ring, m1, m2)
                if factor is not None:
                    n, d = n * factor[0], d * factor[1]
            buckets = acc.get(mono)
            if buckets is None:
                acc[mono] = {d: n}
            else:
                buckets[d] = buckets.get(d, 0) + n


def mul_raw_into(ring, acc, terms, raw, weight, den):
    """Add the product of a term dict and the raw sum raw, times an int
    weight and over an int denominator, into the raw sum acc, bucket by
    bucket, so raw is never finished.

    raw may hold zero sums, which add only zeros (see `mul_into`)."""
    for m1, (n1, d1) in terms.items():
        n1, d1 = n1 * weight, d1 * den
        for m2, buckets in raw.items():
            if not m1:
                mono, factor = m2, None
            elif not m2:
                mono, factor = m1, None
            else:
                mono, factor = _monomial_product(ring, m1, m2)
            out = acc.get(mono)
            if out is None:
                out = acc[mono] = {}
            if factor is None:
                for d2, n2 in buckets.items():
                    d = d1 * d2
                    out[d] = out.get(d, 0) + n1 * n2
            else:
                fn, fd = factor
                for d2, n2 in buckets.items():
                    d = d1 * d2 * fd
                    out[d] = out.get(d, 0) + n1 * n2 * fn


def add_into(acc, terms, weight=1, den=1):
    """Add a term dict times an int weight, over an int denominator, into
    the raw sum acc."""
    for mono, (n, d) in terms.items():
        n, d = n * weight, d * den
        buckets = acc.get(mono)
        if buckets is None:
            acc[mono] = {d: n}
        else:
            buckets[d] = buckets.get(d, 0) + n


def finish(ring, acc):
    """The Scalar of the raw sum acc, or None when it is zero: each
    monomial's sum over the lcm of its buckets, reduced by one gcd to a
    positive denominator, with the zero sums dropped."""
    terms = {}
    for mono, buckets in acc.items():
        if len(buckets) == 1:
            (d, n), = buckets.items()
        else:
            d = lcm(*buckets)
            n = sum(num * (d // den) for den, num in buckets.items())
        if n:
            common = gcd(n, d) if d > 0 else -gcd(n, d)
            terms[mono] = n // common, d // common
    return _scalar(ring, terms) if terms else None


def finish_each(ring, sums):
    """key -> Scalar for each raw sum of sums that is not zero (see
    `finish`)."""
    out = {}
    for key, acc in sums.items():
        value = finish(ring, acc)
        if value is not None:
            out[key] = value
    return out


class Scalar:
    """An element of the ring: a rational linear combination of monomials,
    held as terms, monomial -> reduced (numerator, denominator).

    A sum or product of two Scalars is one raw sum (`add_into`,
    `mul_into`) and one `finish`; monomials are merged and reduced only
    when both factors carry symbols.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        """The Scalar of terms, monomial -> int or Fraction coefficient,
        with the zero coefficients dropped."""
        self.ring = ring
        self.terms = {mono: (c.numerator, c.denominator)
                      for mono, c in terms.items() if c}

    # --- basic queries -------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            terms = self.terms
            if not terms:
                return other == 0
            return len(terms) == 1 and \
                terms.get(()) == (other.numerator, other.denominator)
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
            return hash(Fraction(*terms[()]))
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
        acc = {}
        add_into(acc, self.terms)
        add_into(acc, other.terms)
        return finish(self.ring, acc) or _scalar(self.ring, {})

    __radd__ = __add__

    def __neg__(self):
        return _scalar(self.ring,
                       {m: (-n, d) for m, (n, d) in self.terms.items()})

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        ring, acc = self.ring, {}
        if other.__class__ is Scalar:
            mul_into(ring, acc, self.terms.items(),
                     self._coerce(other).terms.items())
        elif isinstance(other, (int, Fraction)):
            add_into(acc, self.terms, other.numerator, other.denominator)
        else:
            return NotImplemented
        return finish(ring, acc) or _scalar(ring, {})

    __rmul__ = __mul__

    def invert(self):
        """Multiplicative inverse where decidable; NotInvertible otherwise.

        A nonzero rational n/d inverts to d/n, its pair swapped. c*M and
        u + v*M, with u, v rational and every symbol of the monomial M
        carrying a square relation, share one formula, (u - v*M) /
        (u^2 - v^2*M^2), which needs u^2 - v^2*M^2 != 0.
        """
        ring, terms = self.ring, self.terms
        if not terms:
            raise NotInvertible("zero is not invertible")
        if len(terms) > 2 or len(terms) == 2 and () not in terms:
            raise NotInvertible(f"shape not invertible: {self}")
        mono = max(terms)  # the monomial M, or () on a rational
        if not mono:
            n, d = terms[()]
            return _scalar(ring, {(): (d, n) if n > 0 else (-d, -n)})
        # M^2 is a rational sn/sd unless M holds a free symbol
        left, square = _monomial_product(ring, mono, mono)
        if left:
            raise NotInvertible(f"free symbol in {self}")
        sn, sd = square or (1, 1)
        (un, ud), (vn, vd) = terms.get((), (0, 1)), terms[mono]
        # numerator and denominator of the formula times ud^2 vd^2 sd
        norm = (un * vd) ** 2 * sd - (vn * ud) ** 2 * sn
        if not norm:
            raise NotInvertible(f"zero norm: {self}")
        return finish(ring, {(): {norm: un * ud * vd * vd * sd},
                             mono: {norm: -vn * vd * ud * ud * sd}})

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
            n, d = self.terms[mono]
            factors = [f"{n}/{d}" if d != 1 else str(n)]
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
    rf"""^\s*
        (?P<coeff>\d+(?:/\d+)?)?
        (?P<rest>(?:\s*\*\s*{_NAME}(?:\^\d+)?
                   |\s*{_NAME}(?:\^\d+)?)*)
        \s*$""",
    re.VERBOSE,
)


def _parse_scalar(ring, text):
    text = text.strip().replace("−", "-")
    if not text:
        raise ScalarParseError("empty scalar literal")
    if "." in text:
        raise ScalarParseError(f"decimals not accepted: {text!r}")
    # (sign, term) pairs; a literal without a leading sign starts with +
    parts = re.split(r"([+-])", text if text[0] in "+-" else "+" + text)
    terms = list(zip(parts[1::2], parts[2::2]))
    if any(not chunk.strip() for _, chunk in terms):
        raise ScalarParseError(f"bad literal: {text!r}")
    acc = {}
    for sign, chunk in terms:
        match = _TERM_RE.match(chunk)
        if not match:
            raise ScalarParseError(f"bad term {chunk!r} in {text!r}")
        coeff_text = match.group("coeff")
        try:
            coeff = Fraction(coeff_text) if coeff_text else Fraction(1)
        except ZeroDivisionError:
            raise ScalarParseError(f"zero denominator in {text!r}") from None
        mono = {}
        rest = match.group("rest") or ""
        for factor in re.findall(_NAME + r"(?:\^\d+)?", rest):
            name, _, exp_text = factor.partition("^")
            exp = int(exp_text or 1)
            if name not in ring.squares:
                raise ScalarParseError(f"unknown symbol {name!r}")
            mono[name] = mono.get(name, 0) + exp
        if not coeff_text and not mono:
            raise ScalarParseError(f"bad term {chunk!r}")
        reduced, value = _reduce_monomial(
            ring, tuple(mono.items()), -coeff if sign == "-" else coeff)
        add_into(acc, {reduced: (value.numerator, value.denominator)})
    return finish(ring, acc) or ring.zero()
