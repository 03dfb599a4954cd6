"""Mode operators on a polynomial super-Fock space and relation checks.

The Fock space is spanned by monomials in bosonic variables x^1, x^2, ...,
Grassmann variables theta^0, theta^1, ... and powers of hbar; a polynomial
is a sparse dict of its terms, so no index is bounded. Heisenberg modes
J_a and Clifford modes Gamma_a act as multiplications and derivatives;
quadratic modes L (even) and G (odd) are evaluated as normal-ordered
bilinear sums. Dilaton-shift/polarization data turns each negative mode
into a finite sum of modes (the tilde operators), and the verifier checks
the algebra relations and the degree-one normalization of the recombined
(hatted) operators pointwise on sample polynomials. The annihilation
oracle checks a computed coefficient tensor against the constraints.

Every mode acts one monomial at a time, through a table filled on first
use: the entry (kind, label, bos, fer) holds the mode's terms on
x^bos theta^fer, each an int weight and den apart from any shift-data
Scalar, and x^bos theta^fer hbar^h adds h to each term's hbar power. The
plain modes' table lives on the ring, a shifted mode's on its ShiftData,
so each lives exactly as long as what its entries depend on; it is the
one cache. One composition, `_compose_into`, reads the outer mode's entry
on each monomial of the inner one's and adds the plain terms as int
weights per key and den, keeping terms with a shift-data factor apart. A
quadratic entry sums such compositions of J and Gamma entries over the
pair labels that act on the monomial; a relation, on each monomial of its
sample, A after B, -+B after A and its right-hand side. Only a shift-data
term or a nonzero int remainder reaches a Scalar raw sum (a mode image,
`_add_mode`, is such sums finished once).
Heisenberg-Clifford holds on all (a, b) once it holds on every a <= b.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from fractions import Fraction
from functools import partial
from math import lcm

from .scalars import accumulate, add_into, finish, finish_each, mul_into
from .store import canonical, insert_index, simplex_keys


class FockPoly:
    """Polynomial in x^i, theta^j, hbar with exact scalar coefficients.

    Keys are (bosonic indices sorted ascending with multiplicity,
    fermionic indices strictly ascending, hbar power); the coefficient is
    relative to the theta factors written in increasing order.

    A polynomial is never changed after construction and keeps nothing
    but its terms: every sum in the module is a raw sum, and the mode
    tables, not the polynomials, hold what is reused.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms=None):
        self.ring = ring
        self.terms = {k: v for k, v in (terms or {}).items() if v}

    @classmethod
    def monomial(cls, ring, bos=(), fer=(), hpow=0, coeff=1):
        """coeff x^bos theta^fer hbar^hpow, theta factors in given order."""
        if isinstance(coeff, (int, Fraction)):
            coeff = ring.rational(coeff)
        if any(a < 1 for a in bos) or any(a < 0 for a in fer):
            raise ValueError(f"no variable x^a for a < 1 or theta^a for "
                             f"a < 0 (got x{tuple(bos)}, theta{tuple(fer)})")
        bos, fer_sorted, sign = canonical(bos, fer)
        if not sign:
            raise ValueError(f"repeated theta factor in {tuple(fer)}")
        return cls(ring, {(bos, fer_sorted, hpow): coeff * sign})

    @classmethod
    def one(cls, ring):
        return cls.monomial(ring)

    def component(self, bos=(), fer=(), hpow=0):
        """Coefficient of x^bos theta^fer hbar^hpow, theta factors in the
        given order."""
        bos, fer, sign = canonical(bos, fer)
        c = self.terms.get((bos, fer, hpow))
        return self.ring.zero() if c is None else c * sign


class ShiftData:
    """Dilaton-shift and polarization tables for mode conjugation."""

    def __init__(self, ring, epsilon, tau, phi, psi):
        self.ring = ring
        self.epsilon = epsilon
        self.tau = {k: v for k, v in tau.items() if v}
        if epsilon not in (1, 3) or epsilon not in self.tau:
            raise ValueError(f"epsilon {epsilon}: need 1 or 3, tau_eps != 0")
        self.phi = {k: v for k, v in phi.items() if v}   # (i, k) -> phi_ik
        self.psi = {k: v for k, v in psi.items() if v}   # (k, i) -> psi_ki
        self.max_index = max(
            [0] + [k for k in self.tau]
            + [max(p) for p in self.phi] + [max(p) for p in self.psi])
        # kind -> i -> the (k, factor) of the terms factor J_k of J_-i
        # (phi_ik / k) and factor Gamma_k of Gamma_-i (psi_ki)
        self.tilde = {"J": {}, "Gamma": {}}
        for (i, k), val in sorted(self.phi.items()):
            if i >= 1 and k >= 1:
                self.tilde["J"].setdefault(i, []).append(
                    (k, val * Fraction(1, k)))
        for (k, i), val in sorted(self.psi.items()):
            if k >= 0:
                self.tilde["Gamma"].setdefault(i, []).append((k, val))
        # (kind, label, bos, fer) -> the terms of the shifted mode on the
        # monomial x^bos theta^fer, filled on first use (see `_entry`)
        self.mode_table = {}

    @classmethod
    def from_curve(cls, curve):
        return cls(curve.ring, curve.epsilon, curve.tau, curve.phi_table,
                   curve.psi_table)


# --- modes on one monomial ---------------------------------------------------
#
# A mode sends the monomial x^bos theta^fer, taken with coefficient 1, to the
# (bos', fer', dh, factor, weight, den) terms of its table entry: weight / den
# times factor (the terms of a shift-data Scalar, tau, phi, psi or a product
# of two; None on a plain term) times x^bos' theta^fer' hbar^dh. weight and
# den are ints: the sign, the raising factor -index and the multiplicity
# mult, and 2 for Gamma_0's theta^0 / 2 (1 otherwise).


def _plain_terms(kind, index, bos, fer):
    """The plain mode J or Gamma of this index on x^bos theta^fer, as entry
    terms. A positive mode is hbar d/dx^index (hbar times the left
    derivative d/dtheta^index), a negative one -index x^-index (theta^-index
    multiplied from the left), J_0 is zero, and of Gamma_0 = theta^0 / 2 +
    hbar d/dtheta^0 exactly one half acts: the first where theta^0 is
    absent (it goes first, sign 1), the second where it is there."""
    fermionic = kind == "Gamma"
    if index < 0 or fermionic and not index and 0 not in fer:
        opened, sign = insert_index(-index, fermionic, bos, fer)
        return [(*opened, 0, None, sign if fermionic else -index,
                 1 if index else 2)] if sign else []
    slot = fer if fermionic else bos
    if index not in slot:  # also J_0: no x^0
        return []
    pos = slot.index(index)
    rest = slot[:pos] + slot[pos + 1:]
    if fermionic:
        return [(bos, rest, 1, None, -1 if pos % 2 else 1, 1)]
    return [(rest, fer, 1, None, slot.count(index), 1)]


# A quadratic mode of label l is 1 / den times the sum over its families
# (kind1, kind2, weight) of sum_k weight(l, k) :A_k B_(2l + odd - k):, and
# L_0 adds hbar / 4. "tail" is the pair sum of the L-L and G-G closure
# right-hand sides after their L_t, "odd tail" that of the L-G one after
# its G_s; both run over even labels k of J_k and odd labels of Gamma_k.
_PAIRS = {  # kind -> (odd, den, families)
    "L": (0, 2, (("J", "J", lambda n, k: 1 if k % 2 else -1),
                 ("Gamma", "Gamma",
                  lambda n, k: k - n if k % 2 else n - k))),
    "G": (1, 1, (("J", "Gamma", lambda m, k: 1 if k % 2 else -1),)),
    "tail": (0, 1, (("J", "J", lambda t, k: 0 if k % 2 else 1),
                    ("Gamma", "Gamma", lambda t, k: t - k if k % 2 else 0))),
    "odd tail": (1, 1, (("J", "Gamma", lambda s, k: 0 if k % 2 else 2),)),
}


def _entry(ring, mode, bos, fer):
    """The entry (kind, label, bos, fer) of the mode (kind, label, shift):
    read from the ring's mode table for a plain mode and from the shift
    data's for a shifted one, and filled by `_tabulate` on a miss."""
    kind, label, shift = mode
    table = (ring if shift is None else shift).mode_table
    entry = table.get((kind, label, bos, fer))
    if entry is None:
        entry = table[kind, label, bos, fer] = _tabulate(ring, mode, bos, fer)
    return entry


def _compose_into(ring, plain, factored, outer, inner, bos, fer, weight, h=0):
    """Add weight times the mode outer after the mode inner (each (kind,
    label, shift)) on x^bos theta^fer hbar^h: the inner entry, then the
    outer entry on each monomial. A plain term adds its int weight to
    plain[key][den] (plain is a defaultdict(dict)), a term with a shift-data
    factor goes onto factored as (key, factor, weight, den); two factors
    multiply, and a product that a square relation makes zero drops it."""
    kind, label, shift = outer
    table = (ring if shift is None else shift).mode_table
    for bos2, fer2, dh, f1, w1, d1 in _entry(ring, inner, bos, fer):
        w1 *= weight
        entry = table.get((kind, label, bos2, fer2))
        if entry is None:
            entry = _entry(ring, outer, bos2, fer2)
        for bos3, fer3, dh2, f2, w2, d2 in entry:
            key = bos3, fer3, h + dh + dh2
            if f2 is None:
                if f1 is None:
                    dens = plain[key]
                    dens[d1 * d2] = dens.get(d1 * d2, 0) + w1 * w2
                    continue
                f2 = f1
            elif f1 is not None:
                acc = {}
                mul_into(ring, acc, f1, f2)
                if (f2 := finish(ring, acc)) is None:
                    continue
                f2 = f2.terms
            factored.append((key, f2, w1 * w2, d1 * d2))


def _merged(plain):
    """(key, None, weight, den), a factored term with no factor, for each
    key of plain whose int weights do not cancel over the lcm of its dens."""
    for key, dens in plain.items():
        if len(dens) == 1:
            (den, weight), = dens.items()
        else:
            den = lcm(*dens)
            weight = sum(w * (den // d) for d, w in dens.items())
        if weight:
            yield key, None, weight, den


def _pair(ring, plain, factored, kind1, i1, kind2, i2, bos, fer, shift,
          weight):
    """Add weight times :A_i1 B_i2: on x^bos theta^fer into plain and
    factored (see `_compose_into`): an annihilator left of a creator is
    reordered (with a sign for two odd modes), any other order is normal."""
    a, b = (kind1, i1, shift), (kind2, i2, shift)
    if i1 > 0 and i2 < 0:
        _compose_into(ring, plain, factored, b, a, bos, fer,
                      -weight if kind1 == kind2 == "Gamma" else weight)
    else:
        _compose_into(ring, plain, factored, a, b, bos, fer, weight)


def _tabulate(ring, mode, bos, fer):
    """The entry of the mode (kind, label, shift) on x^bos theta^fer. With
    shift data, a negative J or Gamma mode (and Gamma_0) is the tilde mode
    J_-i + tau_i + sum_k phi_ik / k J_k, or Gamma_-i + sum_k psi_ki
    Gamma_k; J_0 stays unshifted: tau indices are >= 1, and the tilde
    table holds no J row 0.

    A quadratic mode ("L", "G" or a tail; L_2n and G_(2m+1) have labels n
    and m) is composed from J and Gamma entries (see `_pair`), with one
    plain term per monomial (see `_merged`). It sums only the pair labels
    that act on the monomial: `_pair` applies a positive mode before any
    creator, so those are the labels whose positive mode holds one of the
    monomial's variables, and total <= k <= 0, where neither is positive."""
    kind, label, shift = mode
    if kind in ("J", "Gamma"):
        entry = _plain_terms(kind, label, bos, fer)
        if shift is not None and label <= 0:
            if kind == "J" and -label in shift.tau:
                entry.append((bos, fer, 0, shift.tau[-label].terms, 1, 1))
            for k, val in shift.tilde[kind].get(-label, ()):
                entry += [(*term[:3], val.terms, *term[4:])
                          for term in _plain_terms(kind, k, bos, fer)]
        return tuple(entry)
    odd, den, families = _PAIRS[kind]
    total = 2 * label + odd
    held = {"J": bos, "Gamma": fer}  # the variables it holds
    plain, factored = defaultdict(dict), []
    if kind == "L" and label == 0:
        plain[bos, fer, 1][2] = 1  # hbar / 4, before the common den 2
    for kind1, kind2, weigh in families:
        held1, held2 = held[kind1], held[kind2]
        for k in sorted({*range(total, 1), *held1,
                         *(total - a for a in held2)}):
            # a positive mode needs its variable, J_0 is zero, and
            # creators and Gamma_0 act on anything
            k2 = total - k
            if ((k in held1 if k > 0 else k or kind1 == "Gamma")
                    and (k2 in held2 if k2 > 0 else k2 or kind2 == "Gamma")
                    and (w := weigh(label, k))):
                _pair(ring, plain, factored, kind1, k, kind2, k2, bos, fer,
                      shift, w)
    return tuple((*key, factor, weight, d * den)
                 for key, factor, weight, d in [*factored, *_merged(plain)])


def _add_term(ring, sums, key, c, factor=None, weight=1, den=1):
    """Add the terms c of a Scalar, times the terms factor of another (None
    for 1) and an int weight, over an int denominator, into the raw sum
    sums[key]."""
    acc = sums.get(key)
    if acc is None:
        acc = sums[key] = {}
    if factor is None:
        add_into(acc, c, weight, den)
    else:
        mul_into(ring, acc, c, factor, weight, den)


def _add_mode(sums, kind, label, p, shift):
    """Add the mode (kind, label) on p, with this shift data, into the
    caller's raw sums (key -> raw sum), one monomial of p at a time, and
    return them. A monomial x^bos theta^fer hbar^h reads the entry (kind,
    label, bos, fer) of the mode table (see `_entry`) and adds h to the
    hbar power of each of its terms."""
    ring, mode = p.ring, (kind, label, shift)
    for (bos, fer, h), c in p.terms.items():
        c = c.terms
        for bos2, fer2, dh, factor, w, den in _entry(ring, mode, bos, fer):
            _add_term(ring, sums, (bos2, fer2, h + dh), c, factor, w, den)
    return sums


def _compute(kind, label, p, shift):
    """The image of p under the mode (kind, label) with this shift data.
    Every mode is linear, so the zero polynomial is its own image."""
    if not p.terms:
        return p
    return FockPoly(p.ring,
                    finish_each(p.ring, _add_mode({}, kind, label, p, shift)))


def _apply(kind, label, p, shift=None):
    """The image of p under the mode (kind, label); an L or G image through
    `_apply_L` or `_apply_G`, looked up when called."""
    if kind == "L":
        return _apply_L(label, p, shift)
    if kind == "G":
        return _apply_G(label, p, shift)
    return _compute(kind, label, p, shift)


def _apply_L(n, p, shift):
    """L_2n on p, for n >= -1."""
    return _compute("L", n, p, shift)


def _apply_G(m, p, shift):
    """G_(2m+1) on p, for m >= -1."""
    return _compute("G", m, p, shift)


def apply_mode(kind, label, p, shift=None):
    """Exact action of the mode J, Gamma, L or G of this label on a Fock
    polynomial; with shift data, the conjugated (tilde) mode."""
    odd = {"L": 0, "G": 1}.get(kind)
    if odd is not None:
        if label % 2 != odd or label < odd - 2:
            raise ValueError(f"{kind}_{label}: {kind} labels are "
                             f"{'odd and >= -1' if odd else 'even and >= -2'}")
        label //= 2  # L_2n and G_(2m+1) have labels n and m
    elif kind not in ("J", "Gamma"):
        raise ValueError(f"unknown mode kind {kind!r}")
    return _apply(kind, label, p, shift)


# --- relation checks ----------------------------------------------------------


def _residual(p, a, b, anti=False, rhs=(), weight=0):
    """The raw sums per key of [A, B] ({A, B} when anti) minus weight hbar
    times the sum of the modes rhs on p, for modes (kind, label, shift) and
    None for the identity: on each monomial of p, A after B, -+B after A
    (see `_compose_into`) and each right-hand-side entry. Only factored
    terms and plain keys that do not cancel (`_merged`) reach a raw sum."""
    ring, sums = p.ring, {}
    for (bos, fer, h), c in p.terms.items():
        plain, factored = defaultdict(dict), []
        _compose_into(ring, plain, factored, a, b, bos, fer, 1, h)
        _compose_into(ring, plain, factored, b, a, bos, fer,
                      1 if anti else -1, h)
        for mode in rhs:
            for bos2, fer2, dh, factor, w, d in (
                    [(bos, fer, 0, None, 1, 1)] if mode is None
                    else _entry(ring, mode, bos, fer)):
                key, w = (bos2, fer2, h + 1 + dh), -weight * w
                if factor is None:
                    dens = plain[key]
                    dens[d] = dens.get(d, 0) + w
                else:
                    factored.append((key, factor, w, d))
        for key, factor, w, d in [*factored, *_merged(plain)]:
            _add_term(ring, sums, key, c.terms, factor, w, d)
    return sums


def _holds(p, *relation):
    """True iff the relation's residual cancels on p (see `_residual`)."""
    return all(finish(p.ring, acc) is None
               for acc in _residual(p, *relation).values())


def _rhs(name, n, m, shift=None):
    """The closure right-hand side of [L_n, L_m], [L_n, G_m] or {G_n, G_m}
    (name "LL", "LG" or "GG") as (modes, weight): weight hbar times the sum
    of the modes, and ((), 0) when the weight is zero. The L-L and G-G
    sides are L_t and the tail sum_k :J_k J_(2t-k): + sum_k (t-k) :Gamma_k
    Gamma_(2t-k):, the L-G side G_s and its odd tail, so [L_n, L_m] and
    [L_m, L_n] name the same modes."""
    weight = {"LL": 2 * (n - m), "LG": n - 2 * m - 1, "GG": 2}[name]
    if not weight:
        return (), 0
    if name == "LG":
        return (("G", n + m, shift), ("odd tail", n + m, shift)), weight
    t = n + m + (name == "GG")
    return (("L", t, shift), ("tail", t, shift)), weight


def _closes(name, n, m, p, shift=None):
    """True iff [L_n, L_m], [L_n, G_m] or {G_n, G_m} (name "LL", "LG" or
    "GG") equals its closure right-hand side on p."""
    a = ("G" if name == "GG" else "L", n, shift)
    b = ("L" if name == "LL" else "G", m, shift)
    return _holds(p, a, b, name == "GG", *_rhs(name, n, m, shift))


def check_commutator(relation, a, b, sample):
    """True iff the named relation holds exactly on the sample polynomial.

    relation 'comm1': [L_2a, J_2b] = 2b hbar J_{2a+2b} and
                      [G_{2a+1}, J_2b] = 2b hbar Gamma_{2b+2a+1}  (b >= 1)
    relation 'comm2': [L_2a, Gamma_{2b-1}] = (a+2b-1) hbar Gamma_{2a+2b-1}
                      and {G_{2a+1}, Gamma_{2b-1}} = -hbar J_{2b+2a}
    relation 'comm3': [L_2a, L_2b] closure
    relation 'comm4': [L_2a, G_{2b+1}] closure
    relation 'comm5': {G_{2a+1}, G_{2b+1}} closure

    The labels a, and b in a closure, are >= -1.
    """
    closure = {"comm3": "LL", "comm4": "LG", "comm5": "GG"}.get(relation)
    J, gamma = ("J", 2 * b), ("Gamma", 2 * b - 1)
    # (L or G, linear mode, anti, right-hand-side mode, weight) of each half
    halves = {"comm1": (("L", J, False, ("J", 2 * a + 2 * b), 2 * b),
                        ("G", J, False, ("Gamma", 2 * a + 2 * b + 1), 2 * b)),
              "comm2": (("L", gamma, False, ("Gamma", 2 * a + 2 * b - 1),
                         a + 2 * b - 1),
                        ("G", gamma, True, ("J", 2 * a + 2 * b), -1))}
    if closure is None and relation not in halves:
        raise ValueError(f"unknown relation {relation}")
    if a < -1 or closure and b < -1:
        raise ValueError(f"{relation} at ({a}, {b}): L and G labels "
                         "are >= -1")
    if closure is not None:
        return _closes(closure, a, b, sample)
    return all(_holds(sample, (kind, a, None), (*mode, None), anti,
                      [(*rhs, None)], weight)
               for kind, mode, anti, rhs, weight in halves[relation])


def check_heisenberg_clifford(a, b, sample):
    """[J_a,J_b] = a hbar delta, {Gamma_a,Gamma_b} = hbar delta and
    [J_a,Gamma_b] = [J_b,Gamma_a] = 0: the pairs a <= b cover every (a, b)."""
    p = sample
    J_a, J_b = ("J", a, None), ("J", b, None)
    gamma_a, gamma_b = ("Gamma", a, None), ("Gamma", b, None)
    delta = int(a + b == 0)
    return (_holds(p, J_a, J_b, False, [None], a * delta)
            and _holds(p, gamma_a, gamma_b, True, [None], delta)
            and _holds(p, J_a, gamma_b)
            and (a == b or _holds(p, J_b, gamma_a)))


# --- super-Airy-structure axioms ------------------------------------------------


def _hatted(odd, i, p, shift, i_limit):
    """The recombined operator hat-H_i (hat-F_i when odd is 1) applied to p.

    Triangular recombination, which leaves a single derivative as the
    degree-one part: the shifted L (resp. G) of label (2i - eps - 1) // 2,
    plus tau_k times the plain mode J_2j (resp. Gamma_(2j-1)) for each even
    k, minus tau_k times the recombined operator of higher label for each
    odd k > eps, all divided by tau_eps. Labels above i_limit are truncated
    to zero; they only affect degree-one coefficients beyond the probe
    window and degree-two content, which the axiom checks do not read.
    """
    eps, ring, sums = shift.epsilon, p.ring, {}
    off, inverse = (3 - eps) // 2, shift.tau[eps].invert()
    # each (label, factor) of hat-H (hat-F) that the recursion reaches;
    # each factor is a product of taus and of 1/tau_eps once per level. A
    # worklist, not a nested recursive function: that one would close over
    # itself, and the cycle would keep p, and through it the ring and the
    # mode tables, alive until the cyclic collector runs.
    pending = [(i, ring.one())]
    while pending:
        i, factor = pending.pop()
        if i > i_limit:
            continue
        factor = factor * inverse
        label = (2 * i - eps - 1) // 2
        parts = [(_apply_G(label, p, shift) if odd
                  else _apply_L(label, p, shift), factor)]
        for k, tau in shift.tau.items():
            if k % 2 == 0:
                j = i + k // 2 - 2 + off + odd
                if j > 0:
                    parts.append((_apply("Gamma" if odd else "J", 2 * j - odd,
                                         p), factor * tau))
            elif k > eps:
                pending.append((i + (k - 1) // 2 - 1 + off, -(factor * tau)))
        for q, part_factor in parts:
            for key, c in q.terms.items():
                _add_term(ring, sums, key, c.terms, part_factor.terms)
    return FockPoly(ring, finish_each(ring, sums))


def check_airy_axioms(shift, i_max=3, probe_max=6):
    """Report of failed axiom checks on a ShiftData (empty = all pass).

    Verifies (a) that the degree-one part of each recombined operator is
    exactly hbar d/dx^(2i-1) resp. hbar d/dtheta^(2i) — in particular,
    theta^0 is absent from every degree-one term — and (b) that the
    commutators of the shifted quadratic operators close according to the
    shifted relation right-hand sides (which fails when the polarization
    tables are inconsistent).
    """
    ring = shift.ring
    one = FockPoly.one(ring)
    i_limit = i_max + (probe_max + shift.max_index) // 2 + 2
    failures = []

    for i in range(1, i_max + 1):
        for odd, name, target_x, target_t in (
                (0, "hatted-even", 2 * i - 1, None),
                (1, "hatted-odd", None, 2 * i)):
            op = partial(_hatted, odd, i, shift=shift, i_limit=i_limit)
            if any(len(bos) + len(fer) == 1 and not h
                   for bos, fer, h in op(one).terms):
                failures.append((name, i, "degree-one multiplication term"))
            for var, slot, low, target in (("dx", "bos", 1, target_x),
                                           ("dtheta", "fer", 0, target_t)):
                for b in range(low, probe_max + 1):
                    got = op(FockPoly.monomial(
                        ring, **{slot: (b,)})).component(hpow=1)
                    want = ring.one() if target == b else ring.zero()
                    if got != want:
                        failures.append(
                            (name, i, f"d/{var}^{b} coefficient {got}"))

    # closure of the shifted quadratic operators (conjugated relations)
    eps = shift.epsilon
    samples = [one] + [FockPoly.monomial(ring, bos, fer) for bos, fer
                       in (((1,), ()), ((2,), ()), ((1, 2), ()), ((), (0, 2)),
                           ((1,), (1,)))]
    for i in range(1, i_max + 1):
        for j in range(1, i_max + 1):
            n, m = (2 * i - eps - 1) // 2, (2 * j - eps - 1) // 2
            for p in samples:
                failed = next((name for name in ("LL", "LG", "GG")
                               if not _closes(name, n, m, p, shift)), None)
                if failed:
                    failures.append((f"closure-{failed}", (i, j), "mismatch"))
                    break
    return failures


# --- partition-function annihilation oracle -----------------------------------
#
# The strongest cross-check between the engines and the operator algebra:
# exponentiate the computed coefficient tensor into a truncated state
# Z = exp(sum hbar^{g-1} F/(prod mult!) x^J theta^K) and verify that every
# recombined constraint operator annihilates it. Each summand of F has
# total degree 2(g-1)+#J+#K = chi-2 (degree := 2*hbar-power + slot count)
# and, on curves without scalar operator pieces, the operators raise degree
# by at least one, so all residual components of degree <= chi_max-1 are
# computed exactly from a tensor complete through chi_max.


def _deg(key):
    bos, fer, hpow = key
    return 2 * hpow + len(bos) + len(fer)


def _mult_fact(bos):
    out, seen = 1, {}
    for b in bos:
        seen[b] = seen.get(b, 0) + 1
        out *= seen[b]
    return out


def exp_state(tensor):
    """exp of the generating sum of a coefficient tensor, to the total
    degree chi_max - 2 of its entries, over the tensor's ring."""
    maxdeg, ring = tensor.chi_max - 2, tensor.ring
    fterms = {}
    for (g, bos, fer), val in tensor.entries.items():
        accumulate(fterms, (bos, fer, g - 1),
                   val * Fraction(1, _mult_fact(bos)))
    # the F terms by degree: a power term of degree d meets the prefix of
    # degree <= maxdeg - d; each power is one raw sum per key
    ordered = sorted(fterms.items(), key=lambda item: _deg(item[0]))
    degrees = [_deg(key) for key, _ in ordered]
    z = {((), (), 0): ring.one()}
    power = dict(fterms)
    k = 1
    while power:
        for key, val in power.items():
            accumulate(z, key, val)
        k += 1
        sums = {}
        for (b1, f1, h1), v1 in power.items():
            fit = bisect_right(degrees, maxdeg - _deg((b1, f1, h1)))
            for (b2, f2, h2), v2 in ordered[:fit]:
                bm, fm, sg = canonical(b1 + b2, f1 + f2)
                if sg:
                    acc = sums.setdefault((bm, fm, h1 + h2), {})
                    mul_into(ring, acc, v1.terms, v2.terms, sg, k)
        power = finish_each(ring, sums)
    return FockPoly(ring, z)


def annihilation_report(curve, tensor, i_max=4):
    """Nonzero exact residual components, through degree chi_max - 1, of
    the recombined constraints for i = 1..i_max on exp of the tensor."""
    shift = ShiftData.from_curve(curve)
    state = exp_state(tensor)
    bad = {}
    for i in range(1, i_max + 1):
        for kind, label in (("L", 2 * i - curve.epsilon - 1),
                            ("G", 2 * i - curve.epsilon)):
            res = apply_mode(kind, label, state, shift)
            hits = {k: v for k, v in res.terms.items()
                    if _deg(k) < tensor.chi_max}
            if hits:
                bad[(kind, label)] = hits
    return bad


def dilaton_report(curve, tensor):
    """The keys (g, bos, fer) at levels 3 through chi_max - 1 on which

        sum_p (tau_p / p) F_g(bos, p | fer) = -(2g - 2 + n + m) F_g(bos | fer),

    n = len(bos) and m = len(fer), fails, each with (left, right) side.
    Every key of the index simplex is checked, zero entries included; a
    key outside it has two zero sides.

    This super dilaton equation, in which each fermion counts as one
    boundary, held on every curve it was tried on; it was found by
    computation and is not derived here."""
    bad = {}
    for chi in range(3, tensor.chi_max):
        for g, bos, fer in simplex_keys(chi, tensor.epsilon):
            left = tensor.zero
            for p, tau in curve.tau.items():
                left = left + tau * Fraction(1, p) * tensor.get(
                    g, bos + (p,), fer)
            right = tensor.get(g, bos, fer) * -(2 * g - 2 + len(bos)
                                                + len(fer))
            if left != right:
                bad[g, bos, fer] = (left, right)
    return bad
