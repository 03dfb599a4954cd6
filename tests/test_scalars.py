from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from superrec.scalars import (
    NotInvertible, Ring, RingMismatch, Scalar, ScalarParseError)


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
