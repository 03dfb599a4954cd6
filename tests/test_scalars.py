from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from superrec.biseries import BiSeries
from superrec.scalars import (
    NotInvertible, Ring, RingMismatch, Scalar, ScalarParseError, add_into,
    finish, mul_into, mul_raw_into)
from superrec.series import FormalSeries


def as_rational(value):
    """A Scalar without symbols as a Fraction; known values and oracles
    compare in Fractions."""
    if set(value.terms) - {()}:
        raise ValueError(f"not a rational: {value}")
    return Fraction(*value.terms.get((), (0, 1)))


def as_pairs(terms):
    """Terms monomial -> Fraction as a Scalar stores them: monomial ->
    (numerator, denominator)."""
    return {mono: (c.numerator, c.denominator) for mono, c in terms.items()}


def pairs_are_reduced(value):
    """Every stored coefficient of a Scalar is an int pair in lowest terms
    with a positive denominator and a nonzero numerator."""
    return all(n.__class__ is int and d.__class__ is int and n and d > 0
               and gcd(n, d) == 1 for n, d in value.terms.values())


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
    # a zero denominator is a parse error, not an internal one
    for text in ("1/0", "0/0", "-2/0*s", "1 + 3/0 pi2"):
        with pytest.raises(ScalarParseError, match="zero denominator"):
            ring.parse(text)


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


# u + v*M + w*N in a ring with s^2 = 2, r^2 = -3, q^2 = 4 and a free t
_NORM_RING = Ring([("s", 2), ("r", -3), ("q", 4), ("t", None)])
_NORM_SQUARES = {"s": 2, "r": -3, "q": 4, "t": None}
_MONOMIALS = ("s", "r", "q", "t", "s*r", "r*q", "s*r*q", "s*t", "t^2")


@settings(max_examples=300)
@given(st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)),
       st.integers(-2, 2), st.sampled_from(_MONOMIALS),
       st.one_of(st.none(), st.tuples(st.integers(-2, 2),
                                      st.sampled_from(_MONOMIALS))))
@example(Fraction(2), 1, "q", None)  # 2 + q has norm 4 - 4 = 0
@example(Fraction(-2), 1, "q", None)
@example(Fraction(0), 0, "s", None)
@example(Fraction(1), 1, "t", None)
@example(Fraction(0), 2, "s*t", None)
@example(Fraction(1), 1, "s", (1, "r"))
@example(Fraction(0), 1, "s", (1, "r"))
def test_invert_raises_exactly_where_documented(u, v, m, extra):
    """NotInvertible on zero, on a free symbol with v != 0, on a zero norm
    u^2 - v^2 M^2 (computed here in Fractions), and on more than one
    monomial besides the constant; otherwise x * x.invert() == 1, with the
    inverse's pairs reduced and its denominators positive."""
    ring = _NORM_RING
    x = ring.rational(u) + v * ring.parse(m)
    if extra is not None and extra[1] != m:
        x = x + extra[0] * ring.parse(extra[1])
    others = [mono for mono in x.terms if mono]
    if not x or len(others) > 1:
        expect = False
    elif not others:
        expect = True
    else:
        (mono,) = others
        squares = [_NORM_SQUARES[name] for name, _ in mono]
        if None in squares:
            expect = False
        else:
            norm_u = Fraction(*x.terms.get((), (0, 1)))
            norm_v = Fraction(*x.terms[mono])
            square = Fraction(1)
            for value in squares:
                square *= value
            expect = norm_u * norm_u - norm_v * norm_v * square != 0
    if not expect:
        with pytest.raises(NotInvertible):
            x.invert()
        return
    inv = x.invert()
    assert pairs_are_reduced(inv)
    assert x * inv == 1


# literal edge cases around the signs that split a literal into terms
BAD_LITERALS = ("-", "+", "1-", "--1", "1+-2")
LITERAL_VALUES = (("+t", "t"), (" - 2*t + 3 ", "3 - 2*t"), ("1 −2", "-1"),
                  ("2t", "2*t"))


@pytest.mark.parametrize("text", BAD_LITERALS)
def test_a_sign_without_a_term_is_a_bad_literal(text):
    with pytest.raises(ScalarParseError, match="bad literal"):
        Ring([("t", None)]).parse(text)


@pytest.mark.parametrize("text, value", LITERAL_VALUES)
def test_signed_literal_values(text, value):
    ring = Ring([("t", None)])
    t = ring.symbol("t")
    expected = {"t": t, "3 - 2*t": 3 - 2 * t, "-1": ring.rational(-1),
                "2*t": 2 * t}[value]
    assert ring.parse(text) == expected
    assert ring.parse(text).literal() == expected.literal()


@given(scalars())
def test_canonical_no_zero_terms(a):
    assert all(n != 0 for n, _ in a.terms.values())
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
    return _reference(a.ring.squares, [(dict(m), Fraction(*c))
                                       for x in (a, b)
                                       for m, c in x.terms.items()])


def reference_mul(a, b):
    pairs = []
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            exps = dict(m1)
            for name, exp in m2:
                exps[name] = exps.get(name, 0) + exp
            pairs.append((exps, Fraction(*c1) * Fraction(*c2)))
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
    return pairs_are_reduced(value) and all(
        exp == 1 or squares[name] is None
        for mono in value.terms for name, exp in mono)


@settings(max_examples=300)
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
        assert out.terms == as_pairs(want), (a, b, q)
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
    weight, which the raw sum takes as an int over an int denominator; a
    term is sometimes repeated with the opposite weight (and its factors
    swapped), so that sums often cancel."""
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


@settings(max_examples=300)
@given(ring_and_raw_terms())
def test_raw_accumulation_equals_the_sum_of_scalar_products(drawn):
    ring, terms = drawn
    acc, want = {}, ring.zero()
    for kind, a, b, weight in terms:
        ratio = weight.numerator, weight.denominator
        if kind == "mul":
            mul_into(ring, acc, a.terms.items(), b.terms.items(), *ratio)
            want = want + a * b * weight
        else:
            add_into(acc, a.terms, *ratio)
            want = want + a * weight
    got = finish(ring, acc)
    if want:
        assert got.terms == want.terms and _canonical(got), terms
        assert got.ring is ring
        # one int pair per monomial, nonzero and in lowest terms
        assert pairs_are_reduced(got), terms
    else:
        assert got is None, terms


@settings(max_examples=300)
@given(ring_and_raw_terms())
def test_finished_pairs_equal_the_fraction_sum_of_each_monomial(drawn):
    # each finished pair is the Fraction sum of its monomial's buckets
    ring, terms = drawn
    acc = {}
    for kind, a, b, weight in terms:
        ratio = weight.numerator, weight.denominator
        if kind == "mul":
            mul_into(ring, acc, a.terms.items(), b.terms.items(), *ratio)
        else:
            add_into(acc, a.terms, *ratio)
    want = {mono: sum(Fraction(n, d) for d, n in buckets.items())
            for mono, buckets in acc.items()}
    finished = finish(ring, acc)
    assert (finished.terms if finished else {}) == as_pairs(
        {mono: c for mono, c in want.items() if c}), terms


def test_finished_pairs_are_reduced_and_drop_zero_sums():
    ring = Ring([("s", 4), ("t", None)])
    s = ring.symbol("s")
    acc = {}
    mul_into(ring, acc, (s - 2).terms.items(), (s + 2).terms.items())
    assert acc and finish(ring, acc) is None  # zero buckets only
    # 1/6 + 1/3 over their lcm, 6/4 in one bucket, and a bucket whose
    # denominator is negative, as Fraction reads them
    acc = {(): {6: 1, 3: 1}, (("s", 1),): {4: 6},
           (("t", 1),): {-4: 2}}
    assert finish(ring, acc).terms == {(): (1, 2), (("s", 1),): (3, 2),
                                       (("t", 1),): (-1, 2)}


def test_raw_accumulation_drops_a_product_that_vanishes():
    ring = Ring([("s", 4)])
    s = ring.symbol("s")
    acc = {}
    mul_into(ring, acc, (s - 2).terms.items(), (s + 2).terms.items())
    assert finish(ring, acc) is None
    assert ((s - 2) * (s + 2)).terms == {}


@st.composite
def ring_and_raw_operand(draw):
    """A ring of FAST_PATH_RINGS, a left factor, the (a, b, weight)
    products of a raw inner sum, and an int weight and denominator; an
    inner product is sometimes repeated with the opposite weight, so that
    the inner sum often cancels, to zero buckets on the s^2 = 4 ring."""
    ring = Ring(FAST_PATH_RINGS[draw(st.sampled_from(
        sorted(FAST_PATH_RINGS)))])
    elements = st.sampled_from(_pool(ring, draw(st.sampled_from(
        [DYADIC, NON_DYADIC]))))
    inner = []
    for _ in range(draw(st.integers(0, 4))):
        a, b = draw(elements), draw(elements)
        weight = draw(st.sampled_from([1, -1, 3]))
        inner.append((a, b, weight))
        if draw(st.booleans()):
            inner.append((b, a, -weight))
    return (ring, draw(elements), inner, draw(st.sampled_from([1, -1, 2, -3])),
            draw(st.sampled_from([1, 2, 3])))


@settings(max_examples=300)
@given(ring_and_raw_operand())
def test_raw_operand_product_equals_the_finished_product(drawn):
    ring, left, inner, weight, den = drawn
    raw = {}
    for a, b, w in inner:
        mul_into(ring, raw, a.terms.items(), b.terms.items(), w)
    before = {mono: dict(buckets) for mono, buckets in raw.items()}
    finished = finish(ring, raw)
    got, want = {}, {}
    for acc in (got, want):
        add_into(acc, left.terms, 1, 3)  # a raw sum that holds a term
    mul_raw_into(ring, got, left.terms, raw, weight, den)
    if finished is not None:
        mul_into(ring, want, left.terms.items(), finished.terms.items(),
                 weight, den)
    assert finish(ring, got) == finish(ring, want), (left, inner)
    assert raw == before  # read, never written


def test_raw_operand_that_cancels_adds_only_zeros():
    ring = Ring([("s", 4)])
    s = ring.symbol("s")
    raw = {}
    mul_into(ring, raw, (s - 2).terms.items(), (s + 2).terms.items())
    assert raw and finish(ring, raw) is None  # zero buckets, no Scalar
    acc = {}
    mul_raw_into(ring, acc, (s + 1).terms, raw, 3, 2)
    assert acc and finish(ring, acc) is None


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
    # BiSeries quotient on its square, are the Scalar sums of their terms,
    # and a sum that cancels is not stored
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
    quotient = a.quotient_on_square(
        BiSeries(ring, b.coeffs | {(0, 0): ring.one()}, 8), 5)
    assert all(quotient.values())
    assert all(value.terms and pairs_are_reduced(value)
               for value in list((x * y).coeffs.values())
               + list((a * b).coeffs.values())
               + list(quotient.values()))


# --- the stored pairs against a Fraction oracle ------------------------------


@st.composite
def ring_and_oracle(draw):
    """A ring of RAW_RINGS and the canonical terms (monomial -> Fraction)
    of two of its elements, each sometimes a rational or zero."""
    ring = Ring(RAW_RINGS[draw(st.sampled_from(sorted(RAW_RINGS)))])
    names = sorted(ring.squares)

    def element():
        exps = st.fixed_dictionaries(
            {name: st.integers(0, 3) for name in names})
        if draw(st.booleans()):
            exps = st.just({})
        coeffs = st.fractions(min_value=-20, max_value=20,
                              max_denominator=12)
        pairs = draw(st.lists(st.tuples(exps, coeffs), max_size=3))
        return _reference(ring.squares, pairs)
    return ring, element(), element()


@settings(max_examples=300)
@given(ring_and_oracle(), st.integers(-6, 6),
       st.fractions(min_value=-5, max_value=5, max_denominator=9))
def test_stored_pairs_match_a_fraction_oracle(drawn, n, q):
    ring, fa, fb = drawn
    a, b = Scalar(ring, fa), Scalar(ring, fb)
    assert a.terms == as_pairs(fa) and b.terms == as_pairs(fb)
    negated = {mono: -c for mono, c in fa.items()}
    scaled = {}
    for k in (n, q):
        scaled[k] = {mono: c * k for mono, c in fa.items() if c * k}
    outs = [(a + b, reference_add(a, b)), (a - b, reference_add(a, -b)),
            (-a, negated), (a * b, reference_mul(a, b)),
            (a * n, scaled[n]), (n * a, scaled[n]),
            (a * q, scaled[q]), (q * a, scaled[q]),
            (a + q, reference_add(a, ring.rational(q)))]
    for out, want in outs:
        assert out.terms == as_pairs(want), (fa, fb, n, q)
        assert pairs_are_reduced(out) and out.ring is ring
        # the literal parses back to the same stored pairs
        assert ring.parse(out.literal()).terms == out.terms
    # a rational equals, and hashes like, its Fraction and its int
    for value in (n, q, sum(fa.values(), Fraction(0))):
        rational = ring.rational(value)
        assert rational == value and rational == Fraction(value)
        assert rational != value + 1 and rational != Fraction(value) - 1
        assert hash(rational) == hash(value) == hash(Fraction(value))
        assert pairs_are_reduced(rational)
    assert (a == q) == (fa == ({(): q} if q else {}))
    try:
        inverse = a.invert()
    except NotInvertible:
        return
    assert pairs_are_reduced(inverse) and a * inverse == 1
    if set(fa) == {()}:
        assert inverse.terms == as_pairs({(): 1 / fa[()]})
