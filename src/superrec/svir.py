"""Mode operators on a polynomial super-Fock space and relation checks.

The Fock space is spanned by monomials in bosonic variables x^1..x^D,
Grassmann variables theta^0..theta^D and powers of hbar. Heisenberg modes
J_a and Clifford modes Gamma_a act as multiplications and derivatives;
quadratic modes L (even) and G (odd) are evaluated as normal-ordered
bilinear sums. Dilaton-shift/polarization data turns each negative mode
into a finite sum of modes (the tilde operators), and the verifier checks
the algebra relations and the degree-one normalization of the recombined
(hatted) operators pointwise on sample polynomials. The annihilation
oracle checks a computed coefficient tensor against the constraints.

Every mode acts one monomial at a time: a J or Gamma mode sends a monomial
to (monomial, factor) pairs, and a pair of them is the composition of two
such calls. A quadratic mode is a sum over pair labels, of which only those
whose annihilators find their variable in the monomial are applied to it,
so its cost follows the support; its terms are added as raw coefficients,
and each coefficient of the image becomes one Scalar. A polynomial keeps
each L or G image of itself that is computed (`FockPoly.images`), so
applying the same mode with the same shift data to it again returns that
image, which keeps its own images in turn.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial

from .scalars import Scalar, accumulate, add_into, finish_each, mul_into
from .store import canonical, insert_index, simplex_keys


class CapExceeded(Exception):
    """A creation operator would exceed the variable-index cap."""


class FockPoly:
    """Polynomial in x^i, theta^j, hbar with exact scalar coefficients.

    Keys are (bosonic indices sorted ascending with multiplicity,
    fermionic indices strictly ascending, hbar power); the coefficient is
    relative to the theta factors written in increasing order.

    A polynomial is never changed after construction, which is what lets
    `images` (None until the first one is stored) map (kind, label, shift)
    to the L or G image of this polynomial, or to the tail of the L-L and
    G-G closure right-hand sides, and hand the same object to every
    caller.
    """

    __slots__ = ("ring", "cap", "terms", "images")

    def __init__(self, ring, cap, terms=None):
        self.ring = ring
        self.cap = cap
        self.terms = {k: v for k, v in (terms or {}).items() if v}
        self.images = None

    @classmethod
    def monomial(cls, ring, cap, bos=(), fer=(), hpow=0, coeff=1):
        """coeff x^bos theta^fer hbar^hpow, theta factors in given order."""
        if isinstance(coeff, (int, Fraction)):
            coeff = ring.rational(coeff)
        if any(a < 1 for a in bos) or any(a < 0 for a in fer):
            raise ValueError(f"no variable x^a for a < 1 or theta^a for "
                             f"a < 0 (got x{tuple(bos)}, theta{tuple(fer)})")
        bos, fer_sorted, sign = canonical(bos, fer)
        if not sign:
            raise ValueError(f"repeated theta factor in {tuple(fer)}")
        return cls(ring, cap, {(bos, fer_sorted, hpow): coeff * sign})

    @classmethod
    def one(cls, ring, cap):
        return cls.monomial(ring, cap)

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        terms = dict(self.terms)
        for key, val in other.terms.items():
            accumulate(terms, key, val)
        return FockPoly(self.ring, self.cap, terms)

    def __neg__(self):
        return FockPoly(self.ring, self.cap,
                        {k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        terms = dict(self.terms)
        for key, val in other.terms.items():
            accumulate(terms, key, -val)
        return FockPoly(self.ring, self.cap, terms)

    def scale(self, scalar):
        """Multiply by a Scalar, or by an int or Fraction taken as is."""
        if not scalar:
            return FockPoly(self.ring, self.cap)
        return FockPoly(self.ring, self.cap,
                        {k: v * scalar for k, v in self.terms.items()})

    def mul_hbar(self):
        return FockPoly(self.ring, self.cap,
                        {(b, f, h + 1): v for (b, f, h), v
                         in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, FockPoly) and self.terms == other.terms

    def component(self, bos=(), fer=(), hpow=0):
        """Coefficient of x^bos theta^fer hbar^hpow, theta factors in the
        given order."""
        bos, fer, sign = canonical(bos, fer)
        c = self.terms.get((bos, fer, hpow))
        return self.ring.zero() if c is None else c * sign

    def degree_one_terms(self):
        """Sub-polynomial of grading degree one (one variable, no hbar)."""
        terms = {k: v for k, v in self.terms.items()
                 if len(k[0]) + len(k[1]) == 1 and k[2] == 0}
        return FockPoly(self.ring, self.cap, terms)


class ShiftData:
    """Dilaton-shift and polarization tables for mode conjugation."""

    def __init__(self, ring, epsilon, tau, phi, psi):
        self.ring = ring
        self.epsilon = epsilon
        self.tau = {k: v for k, v in tau.items() if v}
        self.phi = {k: v for k, v in phi.items() if v}   # (i, k) -> phi_ik
        self.psi = {k: v for k, v in psi.items() if v}   # (k, i) -> psi_ki
        self.max_index = max(
            [0] + [k for k in self.tau]
            + [max(p) for p in self.phi] + [max(p) for p in self.psi])
        # i -> the (k, phi_ik / k) of the terms phi_ik / k J_k of J_-i, and
        # the (k, psi_ki) of the terms psi_ki Gamma_k of Gamma_-i
        self.phi_rows = {}
        for (i, k), val in sorted(self.phi.items()):
            if k >= 1:
                self.phi_rows.setdefault(i, []).append(
                    (k, val * Fraction(1, k)))
        self.psi_columns = {}
        for (k, i), val in sorted(self.psi.items()):
            if k >= 0:
                self.psi_columns.setdefault(i, []).append((k, val))

    @classmethod
    def from_curve(cls, curve):
        span = range(curve.max_polarization_index() + 1)
        phi = {(i, k): curve.phi_at(i, k) for i in span for k in span}
        psi = {(k, i): curve.psi_at(k, i) for k in span for i in span}
        return cls(curve.ring, curve.epsilon, dict(curve.tau), phi, psi)


# --- modes on one monomial ---------------------------------------------------
#
# A mode sends the monomial of a key (bos, fer, h), taken with coefficient 1,
# to a list of (key, factor) pairs. A factor is an int or a Fraction, or a
# tau, phi or psi Scalar for a term of the shift data.


def _lowered(index, fermionic, key):
    """hbar d/dx^index (hbar times the left derivative d/dtheta^index when
    fermionic) on the monomial key, as one (key, factor) pair, or None
    when the monomial does not hold the variable."""
    bos, fer, h = key
    if fermionic:
        if index not in fer:
            return None
        pos = fer.index(index)
        return (bos, fer[:pos] + fer[pos + 1:], h + 1), -1 if pos % 2 else 1
    mult = bos.count(index)
    if not mult:
        return None
    pos = bos.index(index)
    return (bos[:pos] + bos[pos + 1:], fer, h + 1), mult


def _raised(index, fermionic, key, cap):
    """x^index (theta^index when fermionic, multiplied from the left) times
    the monomial key, as one (key, sign) pair, or None when theta^index is
    already there; CapExceeded for an index above the cap."""
    if index > cap:
        raise CapExceeded(
            f"{'theta' if fermionic else 'x'}^{index} beyond cap {cap}")
    bos, fer, h = key
    slots, sign = insert_index(index, fermionic, bos, fer)
    return (slots + (h,), sign) if sign else None


def _plain_terms(kind, index, key, cap):
    """The plain mode J or Gamma of this index on the monomial key."""
    fermionic = kind == "Gamma"
    if index > 0:
        term = _lowered(index, fermionic, key)
        return [term] if term else []
    if index < 0:
        term = _raised(-index, fermionic, key, cap)
        if term is None:
            return []
        return [term if fermionic else (term[0], -index)]
    if not fermionic:
        return []  # J_0
    # Gamma_0 = theta^0 / 2 + hbar d/dtheta^0
    out = []
    term = _raised(0, True, key, cap)
    if term:
        out.append((term[0], Fraction(term[1], 2)))
    term = _lowered(0, True, key)
    if term:
        out.append(term)
    return out


def _mode_terms(kind, index, key, cap, shift=None):
    """The mode J or Gamma of this index on the monomial key; with shift
    data, a negative mode (and Gamma_0) is expanded into the tilde mode:
    J_-i + tau_i + sum_k phi_ik / k J_k, or Gamma_-i + sum_k psi_ki
    Gamma_k."""
    out = _plain_terms(kind, index, key, cap)
    if shift is None or index > 0:
        return out
    i = -index
    if kind == "J":
        if i:
            tau = shift.tau.get(i)
            if tau:
                out.append((key, tau))
            for k, val in shift.phi_rows.get(i, ()):
                term = _lowered(k, False, key)
                if term:
                    out.append((term[0], val * term[1]))
    else:
        for k, val in shift.psi_columns.get(i, ()):
            out.extend((new, val * factor)
                       for new, factor in _plain_terms("Gamma", k, key, cap))
    return out


def _pair_terms(kind1, i1, kind2, i2, key, cap, shift):
    """The normal-ordered product :A_i1 B_i2: of two modes on the monomial
    key.

    The annihilator-left/creator-right case is reordered (with a sign for
    two odd modes); in every other case the written order already equals
    the normal-ordered operator.
    """
    if i1 > 0 and i2 < 0:
        first, then = (kind1, i1), (kind2, i2)
        sign = -1 if kind1 == kind2 == "Gamma" else 1
    else:
        first, then = (kind2, i2), (kind1, i1)
        sign = 1
    return [(end, sign * f1 * f2)
            for mid, f1 in _mode_terms(*first, key, cap, shift)
            for end, f2 in _mode_terms(*then, mid, cap, shift)]


def _add_term(ring, sums, key, c, factor, weight=1):
    """Add the Scalar c times a factor (an int, Fraction or Scalar) and a
    rational weight into the raw sum sums[key]."""
    acc = sums.get(key)
    if acc is None:
        acc = sums[key] = {}
    if factor.__class__ is Scalar:
        mul_into(ring, acc, c.terms, factor.terms, weight)
    else:
        add_into(acc, c.terms, factor * weight)


def _apply(kind, index, p, shift=None):
    """The mode J or Gamma of this index on p; with shift data, the tilde
    mode."""
    ring, cap, sums = p.ring, p.cap, {}
    for key, c in p.terms.items():
        for new, factor in _mode_terms(kind, index, key, cap, shift):
            _add_term(ring, sums, new, c, factor)
    return FockPoly(ring, cap, finish_each(ring, sums))


def _acts(kind, index, support):
    """False when the mode is zero on every polynomial of this support.

    A positive mode differentiates, so it needs its variable; J_0 is zero;
    creators and Gamma_0, shifted or not, act on anything.
    """
    if index > 0:
        return index in support[kind]
    return index < 0 or kind == "Gamma"


def _pair_sum(p, shift, total, families):
    """Sum over (kind1, kind2, weight) of sum_k weight(k) :A_k B_(total-k): p.

    `_pair_terms` applies a positive mode before any creator, so on a
    monomial it sees at most the monomial's variables and theta^0: a label
    is applied to a monomial only when both of its modes act on the
    monomial's support. Those are the labels whose positive mode holds one
    of its variables, and the range total <= k <= 0 where neither mode is
    positive.
    """
    ring, cap = p.ring, p.cap
    sums = {}  # key -> raw sum of its terms
    for key, c in p.terms.items():
        held = {"J": key[0], "Gamma": key[1]}  # the variables it holds
        for kind1, kind2, weight in families:
            labels = set(range(total, 1))
            labels.update(held[kind1])
            labels.update(total - a for a in held[kind2])
            for k in sorted(labels):
                if not (_acts(kind1, k, held)
                        and _acts(kind2, total - k, held)):
                    continue
                w = weight(k)
                if not w:
                    continue
                for new, factor in _pair_terms(kind1, k, kind2, total - k,
                                               key, cap, shift):
                    _add_term(ring, sums, new, c, factor, w)
    return FockPoly(ring, cap, finish_each(ring, sums))


def _image(kind, label, p, shift, compute):
    """The image of p under the quadratic mode (kind, label) ("L" or "G",
    or the closure "tail"), with this shift data, computed by
    compute(label, p, shift) at most once per polynomial; the key holds
    the ShiftData object itself."""
    key = (kind, label, shift)
    if p.images is None:
        p.images = {}
    elif key in p.images:
        return p.images[key]
    out = p.images[key] = compute(label, p, shift)
    return out


def _sum_L(n, p, shift):
    out = _pair_sum(p, shift, 2 * n, [
        ("J", "J", lambda k: Fraction(1 if k % 2 else -1, 2)),
        ("Gamma", "Gamma",
         lambda k: Fraction(n - k if k % 2 == 0 else k - n, 2))])
    if n == 0:
        out = out + p.mul_hbar().scale(Fraction(1, 4))
    return out


def _sum_G(m, p, shift):
    return _pair_sum(p, shift, 2 * m + 1, [
        ("J", "Gamma", lambda k: 1 if k % 2 else -1)])


def _apply_L(n, p, shift):
    """L_2n on p, for n >= -1."""
    if n < -1:
        raise ValueError(f"L_{2 * n}: L labels are even and >= -2")
    return _image("L", n, p, shift, _sum_L)


def _apply_G(m, p, shift):
    """G_(2m+1) on p, for m >= -1."""
    if m < -1:
        raise ValueError(f"G_{2 * m + 1}: G labels are odd and >= -1")
    return _image("G", m, p, shift, _sum_G)


def apply_mode(kind, label, p, shift=None):
    """Exact action of the mode J, Gamma, L or G of this label on a Fock
    polynomial; with shift data, the conjugated (tilde) mode."""
    if kind == "L":
        if label % 2:
            raise ValueError(f"L_{label}: L labels are even and >= -2")
        return _apply_L(label // 2, p, shift)
    if kind == "G":
        if label % 2 == 0:
            raise ValueError(f"G_{label}: G labels are odd and >= -1")
        return _apply_G((label - 1) // 2, p, shift)
    if kind not in ("J", "Gamma"):
        raise ValueError(f"unknown mode kind {kind!r}")
    return _apply(kind, label, p, shift)


# --- relation checks ----------------------------------------------------------


def _commutator(a_fn, b_fn, p, anti=False):
    first = a_fn(b_fn(p))
    second = b_fn(a_fn(p))
    return first + second if anti else first - second


def _linear(a_fn, b_fn, p, weight, c_fn=None, anti=False):
    """True iff [A, B] = weight hbar C on p ({A, B} when anti), where C is
    the identity when c_fn is None."""
    if weight:
        rhs = (p if c_fn is None else c_fn(p)).mul_hbar().scale(weight)
    else:
        rhs = FockPoly(p.ring, p.cap)
    return _commutator(a_fn, b_fn, p, anti) == rhs


# The pair sums of the relation right-hand sides run over even labels k of
# J_k and odd labels k of Gamma_k; a zero weight skips the other labels.


def _rhs_tail(t, p, shift):
    """L_t + sum_k :J_k J_(2t-k): + sum_k (t-k) :Gamma_k Gamma_(2t-k):,
    kept among p's images: [L_n, L_m] and [L_m, L_n] both read it."""
    return _image("tail", t, p, shift, _sum_tail)


def _sum_tail(t, p, shift):
    return _apply_L(t, p, shift) + _pair_sum(p, shift, 2 * t, [
        ("J", "J", lambda k: 0 if k % 2 else 1),
        ("Gamma", "Gamma", lambda k: t - k if k % 2 else 0)])


def _rhs_LL(n, m, p, shift=None):
    if n == m:
        return FockPoly(p.ring, p.cap)
    return _rhs_tail(n + m, p, shift).mul_hbar().scale(2 * (n - m))


def _rhs_LG(n, m, p, shift=None):
    if n - 2 * m - 1 == 0:
        return FockPoly(p.ring, p.cap)
    out = _apply_G(n + m, p, shift) + _pair_sum(
        p, shift, 2 * n + 2 * m + 1,
        [("J", "Gamma", lambda k: 0 if k % 2 else 2)])
    return out.mul_hbar().scale(n - 2 * m - 1)


def _rhs_GG(n, m, p, shift=None):
    return _rhs_tail(n + m + 1, p, shift).mul_hbar().scale(2)


def _closes(name, n, m, p, shift=None):
    """True iff [L_n, L_m], [L_n, G_m] or {G_n, G_m} (name "LL", "LG" or
    "GG") equals its closure right-hand side on p."""
    a = _apply_G if name == "GG" else _apply_L
    b = _apply_L if name == "LL" else _apply_G
    lhs = _commutator(lambda q: a(n, q, shift), lambda q: b(m, q, shift), p,
                      anti=name == "GG")
    rhs = {"LL": _rhs_LL, "LG": _rhs_LG, "GG": _rhs_GG}[name]
    return lhs == rhs(n, m, p, shift)


def check_commutator(relation, a, b, sample):
    """True iff the named relation holds exactly on the sample polynomial.

    relation 'comm1': [L_2a, J_2b] = 2b hbar J_{2a+2b} and
                      [G_{2a+1}, J_2b] = 2b hbar Gamma_{2b+2a+1}  (b >= 1)
    relation 'comm2': [L_2a, Gamma_{2b-1}] = (a+2b-1) hbar Gamma_{2a+2b-1}
                      and {G_{2a+1}, Gamma_{2b-1}} = -hbar J_{2b+2a}
    relation 'comm3': [L_2a, L_2b] closure
    relation 'comm4': [L_2a, G_{2b+1}] closure
    relation 'comm5': {G_{2a+1}, G_{2b+1}} closure
    """
    p = sample
    closure = {"comm3": "LL", "comm4": "LG", "comm5": "GG"}.get(relation)
    if closure is not None:
        return _closes(closure, a, b, p)
    L = lambda q: _apply_L(a, q, None)
    G = lambda q: _apply_G(a, q, None)
    if relation == "comm1":
        J = partial(_apply, "J", 2 * b)
        return (_linear(L, J, p, 2 * b,
                        partial(_apply, "J", 2 * a + 2 * b))
                and _linear(G, J, p, 2 * b,
                            partial(_apply, "Gamma", 2 * a + 2 * b + 1)))
    if relation == "comm2":
        gamma = partial(_apply, "Gamma", 2 * b - 1)
        return (_linear(L, gamma, p, a + 2 * b - 1,
                        partial(_apply, "Gamma", 2 * a + 2 * b - 1))
                and _linear(G, gamma, p, -1,
                            partial(_apply, "J", 2 * a + 2 * b),
                            anti=True))
    raise ValueError(f"unknown relation {relation}")


def check_heisenberg_clifford(a, b, sample):
    """[J_a,J_b] = a hbar delta, {Gamma_a,Gamma_b} = hbar delta, [J,Gamma]=0."""
    p = sample
    J_a, J_b = partial(_apply, "J", a), partial(_apply, "J", b)
    gamma_b = partial(_apply, "Gamma", b)
    delta = int(a + b == 0)
    return (_linear(J_a, J_b, p, a * delta)
            and _linear(partial(_apply, "Gamma", a), gamma_b, p, delta,
                        anti=True)
            and _linear(J_a, gamma_b, p, 0))


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
    if i > i_limit:
        return FockPoly(p.ring, p.cap)
    eps = shift.epsilon
    off = (3 - eps) // 2
    label = (2 * i - eps - 1) // 2
    out = _apply_G(label, p, shift) if odd else _apply_L(label, p, shift)
    for k, tau in shift.tau.items():
        if k % 2 == 0:
            j = i + k // 2 - 2 + off + odd
            if j > 0:
                mode = _apply("Gamma" if odd else "J", 2 * j - odd, p)
                out = out + mode.scale(tau)
        elif k > eps:
            out = out - _hatted(odd, i + (k - 1) // 2 - 1 + off, p, shift,
                                i_limit).scale(tau)
    lead = shift.tau[eps]
    return out if lead == 1 else out.scale(lead.invert())


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
    cap = probe_max + 2 * (i_max + shift.max_index) + shift.epsilon + 5
    one = FockPoly.one(ring, cap)
    i_limit = i_max + (probe_max + shift.max_index) // 2 + 2
    failures = []

    for i in range(1, i_max + 1):
        for odd, name, target_x, target_t in (
                (0, "hatted-even", 2 * i - 1, None),
                (1, "hatted-odd", None, 2 * i)):
            op = partial(_hatted, odd, i, shift=shift, i_limit=i_limit)
            if not op(one).degree_one_terms().is_zero():
                failures.append((name, i, "degree-one multiplication term"))
            for b in range(1, probe_max + 1):
                got = op(FockPoly.monomial(ring, cap, bos=(b,))).component(
                    hpow=1)
                want = ring.one() if target_x == b else ring.zero()
                if got != want:
                    failures.append((name, i, f"d/dx^{b} coefficient {got}"))
            for b in range(0, probe_max + 1):
                got = op(FockPoly.monomial(ring, cap, fer=(b,))).component(
                    hpow=1)
                want = ring.one() if target_t == b else ring.zero()
                if got != want:
                    failures.append(
                        (name, i, f"d/theta^{b} coefficient {got}"))

    # closure of the shifted quadratic operators (conjugated relations)
    eps = shift.epsilon
    samples = [one,
               FockPoly.monomial(ring, cap, bos=(1,)),
               FockPoly.monomial(ring, cap, bos=(2,)),
               FockPoly.monomial(ring, cap, bos=(1, 2)),
               FockPoly.monomial(ring, cap, fer=(0, 2)),
               FockPoly.monomial(ring, cap, bos=(1,), fer=(1,))]
    for i in range(1, i_max + 1):
        for j in range(1, i_max + 1):
            n = (2 * i - eps - 1) // 2
            m = (2 * j - eps - 1) // 2
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
    maxdeg = tensor.chi_max - 2
    fterms = {}
    for (g, bos, fer), val in tensor.entries.items():
        accumulate(fterms, (bos, fer, g - 1),
                   val * Fraction(1, _mult_fact(bos)))
    z = {((), (), 0): tensor.ring.one()}
    power = dict(fterms)
    k = 1
    while power:
        for key, val in power.items():
            accumulate(z, key, val)
        k += 1
        new = {}
        for (b1, f1, h1), v1 in power.items():
            for (b2, f2, h2), v2 in fterms.items():
                if 2 * (h1 + h2) + len(b1) + len(b2) \
                        + len(f1) + len(f2) > maxdeg:
                    continue
                bm, fm, sg = canonical(b1 + b2, f1 + f2)
                if sg == 0:
                    continue
                kk = (bm, fm, h1 + h2)
                accumulate(new, kk, v1 * v2 * Fraction(sg, k))
        power = new
    # a constraint that would create a variable of index above 40 on the
    # state raises CapExceeded
    return FockPoly(tensor.ring, 40, z)


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
