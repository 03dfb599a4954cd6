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
x^bos theta^fer, each an int weight over the one den _DEN apart from any
shift-data Scalar, and x^bos theta^fer hbar^h adds h to each term's hbar
power. The plain modes' table lives on the ring, a shifted mode's on its
ShiftData, so each lives exactly as long as what its entries depend on; it
is the one cache. One composition, `_compose_into`, reads the outer mode's
entry on each term of an inner entry and adds the plain terms as one int
weight per key, keeping shift-data terms apart. A quadratic entry sums such
compositions of J and Gamma entries over the pair labels that act on the
monomial; a relation reads the entries of A and B on each monomial of its
sample once and composes A after B, -+B after A and its right-hand side
after the identity. Only a shift-data term or a nonzero int remainder
reaches a Scalar raw sum (a mode image, `_compute`, is such sums finished
once). Heisenberg-Clifford holds on all (a, b) once it holds on a <= b.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import partial

from .scalars import add_into, finish, finish_each, mul_into
from .store import canonical, index_bound, insert_index, simplex_keys


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
        for name, values in (("bos", bos), ("fer", fer), ("hpow", [hpow])):
            if bad := [a for a in values if type(a) is not int]:
                raise ValueError(f"{name}: {bad[0]!r} is not an int")
        if isinstance(coeff, (int, Fraction)):
            coeff = ring.rational(coeff)
        if any(a < 1 for a in bos) or any(a < 0 for a in fer) or hpow < 0:
            raise ValueError(f"no x^a for a < 1, theta^a for a < 0 or "
                             f"hbar^h for h < 0 (got x{tuple(bos)}, "
                             f"theta{tuple(fer)}, hpow {hpow})")
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
# (bos', fer', dh, factor, weight) terms of its table entry: weight / _DEN
# times factor (the terms of a shift-data Scalar, tau, phi, psi or a product
# of two; None on a plain term) times x^bos' theta^fer' hbar^dh. The int
# weight (the sign, the raising factor -index, the multiplicity mult) is over
# one den for all: J and Gamma have den 1 or 2 (Gamma_0's theta^0 / 2), a
# pair den <= 2 (the one pair of two Gamma_0s, at total 0, has weight 0 in L
# and L closure), and L's 1/2 and L_0's hbar / 4 give den <= 4, which each
# quadratic entry checks (`_tabulate`). Two entries compose in ints over
# _DEN^2, as a relation does for both its orders in one pass (`_residual`).
_DEN = 4


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
        return [(*opened, 0, None, (sign if fermionic else -index)
                 * (_DEN if index else _DEN // 2))] if sign else []
    slot = fer if fermionic else bos
    if index not in slot:  # also J_0: no x^0
        return []
    pos = slot.index(index)
    rest = slot[:pos] + slot[pos + 1:]
    if fermionic:
        return [(bos, rest, 1, None, -_DEN if pos % 2 else _DEN)]
    return [(rest, fer, 1, None, slot.count(index) * _DEN)]


# A quadratic mode of label l is 1 / den times the sum over its families
# (kind1, kind2, weight) of sum_k weight(l, k) :A_k B_(2l + odd - k):, and
# L_0 and "L closure" 0 add hbar / 4. The closure bilinears are the closure
# right-hand sides over hbar, L_t or G_s plus a tail on even J_k and odd
# Gamma_k that evens each weight out to 1 (J J, J Gamma) or t - k.
_PAIRS = {  # kind -> (odd, den, families)
    "L": (0, 2, (("J", "J", lambda n, k: 1 if k % 2 else -1),
                 ("Gamma", "Gamma",
                  lambda n, k: k - n if k % 2 else n - k))),
    "G": (1, 1, (("J", "Gamma", lambda m, k: 1 if k % 2 else -1),)),
    "L closure": (0, 2, (("J", "J", lambda t, k: 1),
                         ("Gamma", "Gamma", lambda t, k: t - k))),
    "G closure": (1, 1, (("J", "Gamma", lambda s, k: 1),)),
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


def _compose_into(ring, plain, factored, outer, inner, weight, h=0):
    """Add weight hbar^h times the mode outer (kind, label, shift) after the
    entry terms inner: its entry on each term's monomial. A plain term adds
    its int weight, over _DEN^2, to plain[key], a term with a shift-data
    factor goes onto factored as (key, factor, weight); two factors
    multiply, and a product that a square relation makes zero drops it."""
    kind, label, shift = outer
    table = (ring if shift is None else shift).mode_table
    for bos2, fer2, dh, f1, w1 in inner:
        w1 *= weight
        entry = table.get((kind, label, bos2, fer2))
        if entry is None:
            entry = _entry(ring, outer, bos2, fer2)
        for bos3, fer3, dh2, f2, w2 in entry:
            key = bos3, fer3, h + dh + dh2
            if f2 is None:
                if f1 is None:
                    plain[key] = plain.get(key, 0) + w1 * w2
                    continue
                f2 = f1
            elif f1 is not None:
                acc = {}
                mul_into(ring, acc, f1.items(), f2.items())
                if (f2 := finish(ring, acc)) is None:
                    continue
                f2 = f2.terms
            factored.append((key, f2, w1 * w2))


def _pair(ring, plain, factored, kind1, i1, kind2, i2, bos, fer, shift,
          weight):
    """Add weight times :A_i1 B_i2: on x^bos theta^fer into plain and
    factored (see `_compose_into`): an annihilator left of a creator is
    reordered (with a sign for two odd modes), any other order is normal."""
    a, b = (kind1, i1, shift), (kind2, i2, shift)
    if i1 > 0 and i2 < 0:
        a, b, weight = b, a, -weight if kind1 == kind2 == "Gamma" else weight
    _compose_into(ring, plain, factored, a, _entry(ring, b, bos, fer), weight)


def _tabulate(ring, mode, bos, fer):
    """The entry of the mode (kind, label, shift) on x^bos theta^fer. The
    identity is the mode ("1", 0, None). With shift data, a negative J or
    Gamma mode (and Gamma_0) is the tilde mode J_-i + tau_i + sum_k phi_ik
    / k J_k, or Gamma_-i + sum_k psi_ki Gamma_k; J_0 stays unshifted: tau
    indices are >= 1, and the tilde table holds no J row 0.

    A quadratic mode ("L", "G" or a closure bilinear; L_2n and G_(2m+1)
    have labels n and m) is composed from J and Gamma entries over _DEN^2
    (see `_pair`), one plain term per monomial, and divided by _DEN times
    its den; a remainder raises ValueError. It sums only the pair labels
    that act on the monomial: `_pair` applies a positive mode before any
    creator, so those are the labels whose positive mode holds one of the
    monomial's variables, and total <= k <= 0, where neither is positive."""
    kind, label, shift = mode
    if kind == "1":
        return ((bos, fer, 0, None, _DEN),)
    if kind in ("J", "Gamma"):
        entry = _plain_terms(kind, label, bos, fer)
        if shift is not None and label <= 0:
            if kind == "J" and -label in shift.tau:
                entry.append((bos, fer, 0, shift.tau[-label].terms, _DEN))
            for k, val in shift.tilde[kind].get(-label, ()):
                entry += [(*term[:3], val.terms, term[4])
                          for term in _plain_terms(kind, k, bos, fer)]
        return tuple(entry)
    odd, den, families = _PAIRS[kind]
    total = 2 * label + odd
    held = {"J": bos, "Gamma": fer}  # the variables it holds
    plain, factored = {}, []
    if kind in ("L", "L closure") and label == 0:
        plain[bos, fer, 1] = _DEN * _DEN // 2  # hbar / 4, before den 2
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
    den *= _DEN
    factored += [(key, None, w) for key, w in plain.items() if w]
    if any(w % den for _, _, w in factored):
        raise ValueError(f"{kind} {label} on x{bos} theta{fer}: a weight "
                         f"is not a multiple of 1 / {_DEN}")
    return tuple((*key, factor, w // den) for key, factor, w in factored)


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
        mul_into(ring, acc, c.items(), factor.items(), weight, den)


def _compute(kind, label, p, shift):
    """The image of p under the mode (kind, label) with this shift data:
    the entry (see `_entry`) of each monomial x^bos theta^fer hbar^h, with
    h added to each hbar power, in one raw sum per key, finished once.
    Every mode is linear, so the zero polynomial is its own image."""
    if not p.terms:
        return p
    ring, mode, sums = p.ring, (kind, label, shift), {}
    for (bos, fer, h), c in p.terms.items():
        c = c.terms
        for bos2, fer2, dh, factor, w in _entry(ring, mode, bos, fer):
            _add_term(ring, sums, (bos2, fer2, h + dh), c, factor, w, _DEN)
    return FockPoly(ring, finish_each(ring, sums))


def _apply_L(n, p, shift):
    """L_2n on p, for n >= -1."""
    return _compute("L", n, p, shift)


def _apply_G(m, p, shift):
    """G_(2m+1) on p, for m >= -1."""
    return _compute("G", m, p, shift)


def apply_mode(kind, label, p, shift=None):
    """Exact action of the mode J, Gamma, L or G of this label on a Fock
    polynomial; with shift data, the conjugated (tilde) mode. An L or G
    image goes through `_apply_L` or `_apply_G`, looked up when called."""
    odd = {"L": 0, "G": 1}.get(kind)
    if odd is not None:
        if label % 2 != odd or label < odd - 2:
            raise ValueError(f"{kind}_{label}: {kind} labels are "
                             f"{'odd and >= -1' if odd else 'even and >= -2'}")
        # L_2n and G_(2m+1) have labels n and m
        return (_apply_G if odd else _apply_L)(label // 2, p, shift)
    if kind not in ("J", "Gamma"):
        raise ValueError(f"unknown mode kind {kind!r}")
    return _compute(kind, label, p, shift)


# --- relation checks ----------------------------------------------------------


def _residual(p, a, b, anti=False, rhs=("1", 0, None), weight=0):
    """The raw sums per key of [A, B] ({A, B} when anti) minus weight hbar
    times rhs on p, for modes (kind, label, shift): on each monomial of p,
    A after the entry of B, -+B after that of A and -weight hbar rhs after
    the identity's (see `_compose_into`), each read once and skipped when
    empty. Only factored terms and plain keys whose int weights do not
    cancel reach a raw sum, over _DEN^2."""
    ring, sums, den, back = p.ring, {}, _DEN * _DEN, 1 if anti else -1
    for (bos, fer, h), c in p.terms.items():
        plain, factored = {}, []
        for outer, inner, sign in ((a, b, 1), (b, a, back)):
            if entry := _entry(ring, inner, bos, fer):
                _compose_into(ring, plain, factored, outer, entry, sign, h)
        if weight:
            _compose_into(ring, plain, factored, rhs,
                          _entry(ring, ("1", 0, None), bos, fer), -weight,
                          h + 1)
        c = c.terms
        for key, factor, w in factored:
            _add_term(ring, sums, key, c, factor, w, den)
        for key, w in plain.items():
            if w:
                _add_term(ring, sums, key, c, None, w, den)
    return sums


def _holds(p, *relation):
    """True iff the relation's residual cancels on p (see `_residual`):
    False at the first sum that finishes nonzero."""
    for acc in _residual(p, *relation).values():
        if finish(p.ring, acc) is not None:
            return False
    return True


def _closure(name, n, m, shift=None):
    """The closure [L_n, L_m], [L_n, G_m] or {G_n, G_m} (name "LL", "LG"
    or "GG") as the relation (A, B, anti, rhs, weight) of `_residual`: its
    right-hand side is weight hbar times the closure bilinear rhs, "L
    closure" of label n + m (n + m + 1 for G-G) or "G closure" of label n
    + m, so [L_n, L_m] and [L_m, L_n] name the same bilinear."""
    weight = {"LL": 2 * (n - m), "LG": n - 2 * m - 1, "GG": 2}[name]
    a = ("G" if name == "GG" else "L", n, shift)
    b = ("L" if name == "LL" else "G", m, shift)
    if name == "LG":
        return a, b, False, ("G closure", n + m, shift), weight
    t = n + m + (name == "GG")
    return a, b, name == "GG", ("L closure", t, shift), weight


def check_commutator(relation, a, b, sample):
    """True iff the named relation holds exactly on the sample polynomial.

    relation 'comm1': [L_2a, J_2b] = 2b hbar J_{2a+2b} and
                      [G_{2a+1}, J_2b] = 2b hbar Gamma_{2b+2a+1}
    relation 'comm2': [L_2a, Gamma_{2b-1}] = (a+2b-1) hbar Gamma_{2a+2b-1}
                      and {G_{2a+1}, Gamma_{2b-1}} = -hbar J_{2b+2a}
    relation 'comm3': [L_2a, L_2b] closure
    relation 'comm4': [L_2a, G_{2b+1}] closure
    relation 'comm5': {G_{2a+1}, G_{2b+1}} closure

    The labels a, and b in a closure, are >= -1; comm1 and comm2 hold
    for every integer b, the creators J_2b and Gamma_(2b-1) included.
    """
    closure = {"comm3": "LL", "comm4": "LG", "comm5": "GG"}.get(relation)
    if closure is None and relation not in ("comm1", "comm2"):
        raise ValueError(f"unknown relation {relation}")
    if a < -1 or closure and b < -1:
        raise ValueError(f"{relation} at ({a}, {b}): L and G labels "
                         "are >= -1")
    if closure is not None:
        return _holds(sample, *_closure(closure, a, b))
    # the L and G halves: (A, linear mode, anti, right-hand-side mode, weight)
    p, c, L, G = sample, 2 * a + 2 * b, ("L", a, None), ("G", a, None)
    if relation == "comm1":
        J = ("J", 2 * b, None)
        return (_holds(p, L, J, False, ("J", c, None), 2 * b)
                and _holds(p, G, J, False, ("Gamma", c + 1, None), 2 * b))
    gamma = ("Gamma", 2 * b - 1, None)
    return (_holds(p, L, gamma, False, ("Gamma", c - 1, None), a + 2 * b - 1)
            and _holds(p, G, gamma, True, ("J", c, None), -1))


def check_heisenberg_clifford(a, b, sample):
    """[J_a,J_b] = a hbar delta, {Gamma_a,Gamma_b} = hbar delta and
    [J_a,Gamma_b] = [J_b,Gamma_a] = 0: the pairs a <= b cover every (a, b)."""
    p, one, delta = sample, ("1", 0, None), int(a + b == 0)
    J_a, J_b = ("J", a, None), ("J", b, None)
    gamma_a, gamma_b = ("Gamma", a, None), ("Gamma", b, None)
    return (_holds(p, J_a, J_b, False, one, a * delta)
            and _holds(p, gamma_a, gamma_b, True, one, delta)
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
                    parts.append((_compute("Gamma" if odd else "J",
                                           2 * j - odd, p, None),
                                  factor * tau))
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
                               if not _holds(p, *_closure(name, n, m,
                                                          shift))), None)
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
    fterms = {(bos, fer, g - 1): val * Fraction(1, _mult_fact(bos))
              for (g, bos, fer), val in tensor.entries.items()}
    # the F terms by degree: a power term of degree d meets the prefix of
    # degree <= maxdeg - d; each power is one raw sum per key
    ordered = sorted(fterms.items(), key=lambda item: _deg(item[0]))
    degrees = [_deg(key) for key, _ in ordered]
    z = {}
    add_into(z.setdefault(((), (), 0), {}), ring.one().terms)
    power = fterms
    k = 1
    while power:
        for key, val in power.items():
            add_into(z.setdefault(key, {}), val.terms)
        k += 1
        sums = {}
        for (b1, f1, h1), v1 in power.items():
            fit = bisect_right(degrees, maxdeg - _deg((b1, f1, h1)))
            for (b2, f2, h2), v2 in ordered[:fit]:
                bm, fm, sg = canonical(b1 + b2, f1 + f2)
                if sg:
                    acc = sums.setdefault((bm, fm, h1 + h2), {})
                    mul_into(ring, acc, v1.terms.items(), v2.terms.items(),
                             sg, k)
        power = finish_each(ring, sums)
    return FockPoly(ring, finish_each(ring, z))


def annihilation_report(curve, tensor):
    """Nonzero exact residual components, through degree chi_max - 1, of
    the recombined constraints on exp of the tensor, for i = 1 up to the
    engines' last constraint (B(chi_max) + 4 - eps) // 2, and at least 4."""
    shift = ShiftData.from_curve(curve)
    state = exp_state(tensor)
    bad, eps = {}, curve.epsilon
    i_max = max(4, (index_bound(tensor.chi_max, eps) + 4 - eps) // 2)
    for i in range(1, i_max + 1):
        for kind, label in (("L", 2 * i - eps - 1), ("G", 2 * i - eps)):
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
            acc = {}
            for p, tau in curve.tau.items():
                mul_into(tensor.ring, acc, tau.terms.items(),
                         tensor.get(g, bos + (p,), fer).terms.items(), 1, p)
            left = finish(tensor.ring, acc) or tensor.zero
            right = tensor.get(g, bos, fer) * -(2 * g - 2 + len(bos)
                                                + len(fer))
            if left != right:
                bad[g, bos, fer] = (left, right)
    return bad
