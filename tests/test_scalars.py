from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from superrec.biseries import BiSeries
from superrec.scalars import (
    NotInvertible, Ring, RingMismatch, Scalar, ScalarParseError, add_into,
    finish, mul_into)
from superrec.series import FormalSeries


@pytest.fixture
def ring():
    return Ring([("s", 2), ("im", -1), ("pi2", None)])


def test_add_rationals(ring):
    assert ring.rational(Fraction(1, 2)) + ring.rational(Fraction(1, 3)) \
        == ring.rational(Fraction(5, 6))


def test_add_symbols(ring):
    s = ring.symbol("s")
    assert s + s == 2 * s


def test_add_identity(ring):
    p = ring.symbol("pi2")
    assert p + ring.zero() == p


def test_mul_square_relation(ring):
    s = ring.symbol("s")
    assert s * s == ring.rational(2)
    im = ring.symbol("im")
    assert im * im == ring.rational(-1)


def test_mul_binomial(ring):
    s = ring.symbol("s")
    half = ring.rational(Fraction(1, 2))
    assert (half + s) * (half - s) == ring.rational(Fraction(-7, 4))


def test_free_symbol_powers_kept(ring):
    p = ring.symbol("pi2")
    assert (p * p) * p == ring.parse("pi2^3")


def test_invert_rational(ring):
    assert ring.rational(Fraction(2, 3)).invert() \
        == ring.rational(Fraction(3, 2))


def test_invert_symbol(ring):
    s = ring.symbol("s")
    assert s.invert() == s / 2
    assert s.invert() * s == ring.one()


def test_invert_binomial(ring):
    s = ring.symbol("s")
    one = ring.one()
    assert (one + s).invert() == -one + s
    assert (one + s) * (one + s).invert() == one


def test_invert_failures(ring):
    p = ring.symbol("pi2")
    with pytest.raises(NotInvertible):
        p.invert()
    with pytest.raises(NotInvertible):
        (ring.one() + p).invert()
    with pytest.raises(NotInvertible):
        ring.zero().invert()
    with pytest.raises(NotInvertible):
        (ring.symbol("s") * p).invert()


def test_ring_mismatch(ring):
    other = Ring([("t", 3)])
    with pytest.raises(RingMismatch):
        ring.one() + other.one()


def test_parse_roundtrip(ring):
    texts = ["-3/2*pi2^2 + 1/4", "s", "1+s", "0", "7/3*s*im",
             "-1/2", "pi2", "2*pi2^4"]
    for text in texts:
        value = ring.parse(text)
        assert ring.parse(value.literal()) == value


def test_parse_exact_values(ring):
    p = ring.symbol("pi2")
    assert ring.parse("-3/2*pi2^2 + 1/4") == \
        ring.rational(Fraction(1, 4)) + ring.rational(Fraction(-3, 2)) * p * p


def test_parse_reduces_squares(ring):
    assert ring.parse("s^2") == ring.rational(2)
    assert ring.parse("3*s^3") == 6 * ring.symbol("s")


def test_parse_rejects_decimals(ring):
    with pytest.raises(ScalarParseError):
        ring.parse("0.5")
    with pytest.raises(ScalarParseError):
        ring.parse("1e3")
    with pytest.raises(ScalarParseError):
        ring.parse("x + 1")


_RING = Ring([("s", 2), ("im", -1), ("pi2", None)])


@st.composite
def scalars(draw):
    n_terms = draw(st.integers(0, 3))
    value = _RING.zero()
    for _ in range(n_terms):
        coeff = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 9)))
        term = _RING.rational(coeff)
        for name in ("s", "im", "pi2"):
            exp = draw(st.integers(0, 2))
            for _ in range(exp):
                term = term * _RING.symbol(name)
        value = value + term
    return value


@given(scalars(), scalars(), scalars())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@given(scalars())
def test_invert_when_possible(a):
    try:
        inv = a.invert()
    except NotInvertible:
        return
    assert a * inv == _RING.one()


@given(scalars())
def test_canonical_no_zero_terms(a):
    assert all(coeff != 0 for coeff in a.terms.values())
    # re-normalizing by adding zero changes nothing (idempotent canonical form)
    assert (a + _RING.zero()).terms == a.terms


def test_hash_agrees_with_eq(ring):
    for value in (0, 1, -3, Fraction(2, 7)):
        scalar = ring.rational(value)
        assert scalar == value and hash(scalar) == hash(value)
    assert {ring.rational(1): "one"}.get(1) == "one"
    assert {Fraction(1, 2): "half"}.get(ring.rational(Fraction(1, 2))) \
        == "half"
    assert len({ring.zero(), 0, Fraction(0)}) == 1


# --- the rational fast path against a plain monomial merge -------------------

FAST_PATH_RINGS = {
    "rational": [],
    "free": [("t", None)],
    "square": [("s", 4)],  # s^2 = 4, so (s - 2)(s + 2) = 0
}


def _reduced(squares, exps, coeff):
    mono = []
    for name in sorted(exps):
        exp = exps[name]
        if squares[name] is not None:
            coeff *= squares[name] ** (exp // 2)
            exp %= 2
        if exp:
            mono.append((name, exp))
    return tuple(mono), coeff


def _reference(squares, pairs):
    """The canonical terms of a sum of (exponents, coefficient) products."""
    terms = {}
    for exps, coeff in pairs:
        mono, coeff = _reduced(squares, exps, coeff)
        terms[mono] = terms.get(mono, 0) + coeff
    return {mono: c for mono, c in terms.items() if c}


def reference_add(a, b):
    return _reference(a.ring.squares, [(dict(m), c) for x in (a, b)
                                       for m, c in x.terms.items()])


def reference_mul(a, b):
    pairs = []
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            exps = dict(m1)
            for name, exp in m2:
                exps[name] = exps.get(name, 0) + exp
            pairs.append((exps, c1 * c2))
    return _reference(a.ring.squares, pairs)


@st.composite
def ring_and_scalars(draw):
    """A ring of FAST_PATH_RINGS and two of its elements, as public
    Scalars built from canonical terms."""
    kind = draw(st.sampled_from(sorted(FAST_PATH_RINGS)))
    ring = Ring(FAST_PATH_RINGS[kind])
    names = sorted(ring.squares)

    def element():
        pairs = [({name: draw(st.integers(0, 3)) for name in names},
                  Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 4))))
                 for _ in range(draw(st.integers(0, 3)))]
        return Scalar(ring, _reference(ring.squares, pairs))
    return ring, element(), element()


def _canonical(value):
    squares = value.ring.squares
    return all(value.terms.values()) and all(
        exp == 1 or squares[name] is None
        for mono in value.terms for name, exp in mono)


@settings(derandomize=True, max_examples=300)
@given(ring_and_scalars(), st.fractions(max_denominator=5))
def test_fast_path_matches_monomial_merge(drawn, q):
    ring, a, b = drawn
    before = dict(a.terms), dict(b.terms)
    for out, want in ((a + b, reference_add(a, b)),
                      (a * b, reference_mul(a, b)),
                      (b * a, reference_mul(a, b)),
                      (a * q, reference_mul(a, ring.rational(q))),
                      (q * a, reference_mul(a, ring.rational(q))),
                      (a + q, reference_add(a, ring.rational(q)))):
        assert out.terms == want, (a, b, q)
        assert _canonical(out)
        assert out.ring is ring
    # results adopt fresh dicts: the operands are left as they were
    assert (a.terms, b.terms) == before


def test_fast_path_keeps_ring_checks():
    rational, free = Ring([]), Ring([("t", None)])
    for x, y in ((rational.one(), free.one()), (free.one(), rational.one()),
                 (rational.rational(2), free.symbol("t"))):
        with pytest.raises(RingMismatch):
            x * y
        with pytest.raises(RingMismatch):
            x + y
    # equal rings built apart still combine
    first, second = Ring([("s", 4)]), Ring([("s", 4)])
    assert first is not second
    s1, s2 = first.symbol("s"), second.symbol("s")
    assert s1 * s2 == first.rational(4)
    assert (s1 - 2) * (s2 + 2) == 0
    assert first.rational(3) * second.rational(5) == 15
    assert first.one() + second.one() == 2


# --- raw accumulation: one Scalar per sum of products ------------------------


# Rationals of two kinds: dyadic ones, whose sums need no lcm beyond the
# largest denominator, and ones with many distinct odd denominators.
DYADIC = (1, -1, Fraction(1, 2), Fraction(-3, 2), Fraction(3, 8))
NON_DYADIC = (Fraction(1, 3), Fraction(2, 7), Fraction(-5, 11),
              Fraction(1, 9), Fraction(-1, 2))

# The rings of the raw sums: FAST_PATH_RINGS and sqrt2^2 = 2, alone and
# beside a free symbol.
RAW_RINGS = dict(FAST_PATH_RINGS, sqrt2=[("sqrt2", 2)],
                 mixed=[("sqrt2", 2), ("t", None)])


def _pool(ring, values=DYADIC[:4]):
    """Elements of the ring whose sums and products cancel: opposite
    rationals and symbols, and (s - 2)(s + 2) = 0 when s^2 = 4."""
    out = [ring.rational(v) for v in values]
    for name in ring.squares:
        sym = ring.symbol(name)
        out += [sym, -sym, sym - 2, sym + 2, sym * Fraction(1, 3) - 1]
    return out


@st.composite
def ring_and_raw_terms(draw):
    """A ring of RAW_RINGS and the terms of one raw sum, each either
    ("mul", a, b, weight) or ("add", a, None, weight), whose operands are
    dyadic or have many distinct denominators, with an int or Fraction
    weight; a term is sometimes repeated with the opposite weight (and its
    factors swapped), so that sums often cancel."""
    ring = Ring(RAW_RINGS[draw(st.sampled_from(sorted(RAW_RINGS)))])
    values = draw(st.sampled_from([DYADIC, NON_DYADIC]))
    pool = _pool(ring, values)
    for name, square in ring.squares.items():
        sym = ring.symbol(name)
        pool.append(sym * values[-2] + values[1])
        if square:
            pool.append(sym * sym - square)  # zero
    elements = st.one_of(st.sampled_from(pool), st.builds(
        lambda a, b: a + b, st.sampled_from(pool), st.sampled_from(pool)))
    weights = st.sampled_from([1, -1, 2, -3, Fraction(-1, 2), Fraction(2, 7),
                               Fraction(5, 9)])
    terms = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["mul", "add"]))
        a = draw(elements)
        b = draw(elements) if kind == "mul" else None
        weight = draw(weights)
        terms.append((kind, a, b, weight))
        if draw(st.booleans()):
            terms.append((kind, b, a, -weight) if b is not None
                         else (kind, a, b, -weight))
    return ring, terms


@settings(derandomize=True, max_examples=300)
@given(ring_and_raw_terms())
def test_raw_accumulation_equals_the_sum_of_scalar_products(drawn):
    ring, terms = drawn
    acc, want = {}, ring.zero()
    for kind, a, b, weight in terms:
        if kind == "mul":
            mul_into(ring, acc, a.terms, b.terms, weight)
            want = want + a * b * weight
        else:
            add_into(acc, a.terms, weight)
            want = want + a * weight
    got = finish(ring, acc)
    if want:
        assert got.terms == want.terms and _canonical(got), terms
        assert got.ring is ring
        # one Fraction per monomial, nonzero and in lowest terms
        assert all(coeff.__class__ is Fraction and coeff
                   and gcd(coeff.numerator, coeff.denominator) == 1
                   and coeff.denominator > 0
                   for coeff in got.terms.values()), terms
    else:
        assert got is None, terms


def test_raw_accumulation_drops_a_product_that_vanishes():
    ring = Ring([("s", 4)])
    s = ring.symbol("s")
    acc = {}
    mul_into(ring, acc, (s - 2).terms, (s + 2).terms)
    assert finish(ring, acc) is None
    assert ((s - 2) * (s + 2)).terms == {}


def _series_elements(ring):
    return st.dictionaries(st.integers(0, 4), st.sampled_from(_pool(ring)),
                           max_size=4)


@st.composite
def ring_and_series(draw):
    ring = Ring(FAST_PATH_RINGS[draw(st.sampled_from(
        sorted(FAST_PATH_RINGS)))])
    return ring, draw(_series_elements(ring)), draw(_series_elements(ring))


@settings(derandomize=True, max_examples=100)
@given(ring_and_series())
def test_products_store_no_zero_coefficient(drawn):
    # the coefficients of FormalSeries and BiSeries products, and of a
    # BiSeries quotient, are the Scalar sums of their terms, and a sum that
    # cancels is not stored
    ring, first, second = drawn
    x = FormalSeries(ring, first, 6)
    y = FormalSeries(ring, second, 6)
    trunc = min(x.trunc + y.min_exp, y.trunc + x.min_exp)
    want = {}
    for k1, c1 in first.items():
        for k2, c2 in second.items():
            if k1 + k2 <= trunc:
                want[k1 + k2] = want.get(k1 + k2, ring.zero()) + c1 * c2
    assert (x * y).coeffs == {k: c for k, c in want.items() if c}
    assert all((x * y).coeffs.values())
    a = BiSeries(ring, {(k, 4 - k): c for k, c in first.items()}, 8)
    b = BiSeries(ring, {(k % 3, k // 3): c for k, c in second.items()}, 8)
    want = {}
    for (i1, j1), c1 in a.coeffs.items():
        for (i2, j2), c2 in b.coeffs.items():
            key = (i1 + i2, j1 + j2)
            want[key] = want.get(key, ring.zero()) + c1 * c2
    trunc = min(a.trunc + b.min_total(), b.trunc + a.min_total())
    assert (a * b).coeffs == {key: c for key, c in want.items()
                              if c and sum(key) <= trunc}
    quotient = a / (b + BiSeries.constant(ring, 1, 8)
                    - BiSeries.constant(ring, b.coeff(0, 0), 8))
    assert all(quotient.coeffs.values())
    assert all(value.terms and all(value.terms.values())
               for value in list((x * y).coeffs.values())
               + list((a * b).coeffs.values())
               + list(quotient.coeffs.values()))
