"""Constraint-recursion solver.

Builds the coefficient tables of the quadratic constraint operators from
the curve data, seeds the level chi = 3 entries from the closed-form base
equations, and then solves each level chi >= 4 equation for its unique
leading-index unknown. Each such equation is one sparse contraction: the
coefficients are evaluated once per solver into tables of their nonzero
values, whose (k, l) pairs drive the lookups of lower-level entries, and
each partition of the remaining indices is enumerated once per entry.
The lower-level factors of each product are read as slices of the sector
index (see store.LazyTensor): the nonzero entries with the k or l slot
open, joined with the coefficient table by index, so no index up to the
level bound is probed. Entries are computed lazily with memoization; a
slice is complete only once its level is, so a single high-level query
first solves every lower level in full.
A bosonic-only mode (fermionic content dropped, halved central constant)
supports the genus-scaling reduction checks.
"""

from __future__ import annotations

from fractions import Fraction

from .store import (LazyTensor, UnsolvedEntry, deficit, insert_index,
                    iter_partitions, slot_ranges)


class SingularLeading(Exception):
    pass


class ConstraintCoeffs:
    """Tables C^{bb}, C^{ff}, C^{bf}, D derived from curve parameters.

    phi and psi are read from the curve (`CurveData.phi_at`/`psi_at`),
    which is zero at an index below 1 (phi) or 0 (psi); the bosonic zero
    mode is absent, so any table entry whose bosonic argument is 0
    vanishes identically. `value` and `nonzero` evaluate each coefficient
    once and keep the nonzero ones per range.
    """

    def __init__(self, curve):
        self.curve = curve
        self.ring = curve.ring
        self._half = self.ring.rational(Fraction(1, 2))
        self._values = {}
        self._tables = {}

    def value(self, kind, c, j, k):
        """C^{kind}(c, j, k) for kind "bb", "ff" or "bf", evaluated once."""
        key = (kind, c, j, k)
        out = self._values.get(key)
        if out is None:
            out = self._values[key] = getattr(self, "c_" + kind)(c, j, k)
        return out

    def nonzero(self, kind, c, firsts, seconds):
        """The nonzero (j, k, C^{kind}(c, j, k)) for j in firsts and k in
        seconds, in that order; built once per argument ranges."""
        key = (kind, c, firsts, seconds)
        table = self._tables.get(key)
        if table is None:
            table = self._tables[key] = [
                (j, k, val) for j in firsts for k in seconds
                if (val := self.value(kind, c, j, k))]
        return table

    def c_bb(self, c, j, k):
        """Coefficient of the ordered bosonic pair (j, k) in operator c."""
        if j == 0 or k == 0:
            return self.ring.zero()
        ring, phi = self.ring, self.curve.phi_at
        out = ring.zero()
        sign_j = 1 if j % 2 else -1  # (-1)^(j-1)
        sign_k = 1 if k % 2 else -1
        if j + k == 2 * c - 4:
            out = out + ring.rational(sign_j)
        val = phi(j - 2 * c + 4, k)
        if val:
            out = out + val * ring.rational(Fraction(sign_j, k))
        val = phi(j, k - 2 * c + 4)
        if val:
            out = out + val * ring.rational(Fraction(sign_k, j))
        if c == 1:
            val = phi(1, j) * phi(1, k)
            if val:
                out = out + val * ring.rational(Fraction(1, j * k))
        return out

    def c_ff(self, c, j, k):
        """Coefficient of the ordered fermionic pair (j, k) in operator c."""
        ring, psi = self.ring, self.curve.psi_at
        out = ring.zero()
        sign_j = (-1) ** (j % 2)  # (-1)^j
        sign_k = (-1) ** (k % 2)
        if j + k == 2 * c - 4:
            out = out + ring.rational(Fraction(sign_j * (k - j), 2))
        if c == 1:
            out = out + (psi(j, 2) * psi(k, 0) - psi(j, 0) * psi(k, 2))
        val = psi(j, k - 2 * c + 4)
        if val:
            out = out + val * ring.rational(sign_k * (k - c + 2))
        val = psi(k, j - 2 * c + 4)
        if val:
            out = out - val * ring.rational(sign_j * (j - c + 2))
        return out

    def c_bf(self, c, j, k):
        """Coefficient of the bosonic/fermionic pair (j, k) in operator c."""
        if j == 0:
            return self.ring.zero()
        ring, phi, psi = self.ring, self.curve.phi_at, self.curve.psi_at
        out = ring.zero()
        sign_j = (-1) ** (j % 2)
        sign_k = (-1) ** (k % 2)
        if j + k == 2 * c - 3:
            out = out + ring.rational(sign_k)
        val = phi(j, k - 2 * c + 3)
        if val:
            out = out + val * ring.rational(Fraction(sign_k, j))
        val = psi(k, j - 2 * c + 3)
        if val:
            out = out - val * ring.rational(sign_j)
        if c == 1:
            val = phi(j, 1) * psi(k, 0)
            if val:
                out = out + val * ring.rational(Fraction(1, j))
        return out

    def d(self, c, bosonic_only=False):
        """Constant term of operator c (halved central part if bosonic)."""
        ring = self.ring
        out = ring.zero()
        if c == 2:
            out = out + ring.rational(
                Fraction(1, 8) if bosonic_only else Fraction(1, 4))
        if c == 1:
            out = out + self._half * self.curve.phi_at(1, 1)
            if not bosonic_only:
                out = out + self._half * self.curve.psi_at(0, 2)
        return out


class AirySolver(LazyTensor):
    # bound in this class body, not only inherited, so that perfbench can
    # wrap each engine's lookups, levels and runs on their own
    flookup = LazyTensor.flookup
    level_keys = LazyTensor.level_keys
    run = LazyTensor.run

    def __init__(self, curve, chi_max, bosonic_only=False):
        super().__init__(curve.ring, chi_max, curve.epsilon, bosonic_only)
        self.curve = curve
        # (p, +-tau_p) for p != epsilon, in increasing p: xi0_rest stops at
        # the first p whose lookup falls above the index simplex
        self.dilaton = sorted(
            (p, tau_p if p % 2 else -tau_p)
            for p, tau_p in curve.tau.items() if p != self.epsilon)
        self.tau_eps = curve.tau.get(self.epsilon)
        if not self.tau_eps:
            raise SingularLeading("leading dilaton-shift coefficient is zero")
        self.inv_tau_eps = self.tau_eps.invert()
        self.coeffs = ConstraintCoeffs(curve)

    # --- leading sums ------------------------------------------------------

    def xi0_rest(self, g, bos, fer, fermionic):
        """Leading-sum terms tau_p F(2c+p-4, J|K) (fermionic: tau_p
        F(J|2c+p-3, K)) excluding p = epsilon.

        bos[0] (fermionic: fer[0]) is the solved-for slot, equal to the
        index at p = epsilon. The term of p reads an entry of the same level
        whose deficit is D + epsilon - p, D the deficit of this entry, so it
        is zero for every p > D + epsilon (see store.index_bound).
        """
        base = (fer if fermionic else bos)[0] - self.epsilon
        rest = (bos, fer[1:]) if fermionic else (bos[1:], fer)
        last = self.epsilon + deficit(g, bos, fer, self.epsilon)
        out = self.zero
        for p, signed_tau in self.dilaton:
            if p > last:
                break
            val = self.flookup(g, *_place(base + p, fermionic, *rest))
            if val:
                out = out + signed_tau * val
        return out

    # --- quadratic combinations -------------------------------------------
    #
    # Each xi2_* sums, over a table of nonzero coefficients (k, l, C), C
    # times the quadratic term with k and l in their slots. The lower
    # entries are read as slices, so every factor is a nonzero entry of a
    # solved level. Partition terms with an unstable factor are never
    # formed. This is not just an optimization: a same-level factor in a
    # product always comes paired with an unstable one, and its level is
    # still being solved. So every product factor is at level <= chi - 2
    # and the F_{g-1} term at chi - 1; the only same-level lookups are the
    # leading-sum and single-F terms, whose solved index strictly
    # increases, and the dependency graph is acyclic.

    def xi2_bb(self, g, pairs, bos, fer):
        """Sum of C * [F_{g-1}(k,l,J|K) + signed F(k,J1|K1)F(l,J2|K2)]."""
        return self._xi2(g, pairs, bos, fer, False, False)

    def xi2_ff(self, g, pairs, bos, fer):
        """Sum of C * [-F_{g-1}(J|k,l,K) + signed F(J1|k,K1)F(J2|l,K2)]."""
        return self._xi2(g, pairs, bos, fer, True, True)

    def xi2_bf(self, g, pairs, bos, fer):
        """Sum of C * [F_{g-1}(k,J|l,K) + signed F(k,J1|K1)F(J2|l,K2)]."""
        return self._xi2(g, pairs, bos, fer, False, True)

    def _xi2(self, g, pairs, bos, fer, k_fermionic, l_fermionic):
        """The quadratic sum over pairs (k, l, C) with k and l in the given
        (fermionic or bosonic) slots: C times the F_{g-1} lead term plus
        the signed products F_{g1}(k, J1|K1) F_{g-g1}(l, J2|K2) over
        partitions of J and K, for canonical J = bos and K = fer.

        The lead term is read with l opened in front of k: that is
        F_{g-1}(k, l, ...) for a bosonic k or l, and F_{g-1}(J|l,k,K) =
        -F_{g-1}(J|k,l,K) for two fermions, the lead term of xi2_ff."""
        out = self.zero
        if not pairs:
            return out
        rows = {}
        for k, l, val in pairs:
            rows.setdefault(k, []).append((l, val))
        if g:
            for k, row in rows.items():
                opened, sign = insert_index(k, k_fermionic, bos, fer)
                if sign:
                    lead = _contract(row, self.slice(
                        g - 1, *opened, l_fermionic), self.zero)
                    if lead:
                        out = out + (lead if sign == 1 else -lead)
        fer_splits = list(iter_partitions(fer))
        for bos1, bos2, _ in iter_partitions(bos):
            for fer1, fer2, sign in fer_splits:
                # a factor is stable (chi >= 3) at genus >= 1 or with two
                # indices beside its open slot
                low = 0 if len(bos1) + len(fer1) > 1 else 1
                high = g if len(bos2) + len(fer2) > 1 else g - 1
                for g1 in range(low, high + 1):
                    firsts = self.slice(g1, bos1, fer1, k_fermionic)
                    if not firsts:
                        continue
                    seconds = self.slice(g - g1, bos2, fer2, l_fermionic)
                    if not seconds:
                        continue
                    part = self.zero
                    for k, a in firsts.items():
                        row = rows.get(k)
                        if row is not None:
                            inner = _contract(row, seconds, self.zero)
                            if inner:
                                part = part + a * inner
                    if part:
                        out = out + (part if sign == 1 else -part)
        return out

    # --- level equations ---------------------------------------------------

    def solve_bosonic_entry(self, g, bos, fer):
        """Value of F(bos[0], bos[1:] | fer) from the bosonic constraint.

        bos[0] is the unknown (multiplied by tau_epsilon); everything else
        is looked up (and computed recursively if needed).
        """
        eps = self.epsilon
        b0 = bos[0]
        c = (b0 + 4 - eps) // 2
        assert 2 * c + eps - 4 == b0 and c >= 1
        ring = self.ring
        coeffs = self.coeffs
        rest = bos[1:]
        chi = 2 * g + len(bos) + len(fer)
        acc = self.xi0_rest(g, bos, fer, False)
        if chi == 3:
            # base level: the quadratic terms collapse to constants
            if len(bos) == 3:
                j, k = rest
                val = coeffs.value("bb", c, -j, -k)
                if val:
                    acc = acc + val * ring.rational(j * k)
            elif len(bos) == 1 and len(fer) == 0:
                acc = acc + coeffs.d(c, self.bosonic_only)
            elif len(bos) == 1 and len(fer) == 2:
                j, k = fer
                val = coeffs.value("ff", c, -j, -k)
                if val:
                    denom = 1 + (1 if j == 0 else 0) + (1 if k == 0 else 0)
                    acc = acc + val * ring.rational(Fraction(1, denom))
        else:
            # the quadratic sums carry the 1/2 prefactor of the bilinear
            # part of the constraint operators (it cancels only in the
            # mixed single-F terms below, by index symmetry)
            # k and l take what the other indices leave of the bound of
            # level chi - 1, which every factor of the quadratic terms
            # keeps (see store.index_bound)
            odd, even = slot_ranges(deficit(g, rest, fer, eps))
            quad = self.xi2_bb(g, coeffs.nonzero("bb", c, odd, odd),
                               rest, fer)
            if not self.bosonic_only:
                quad = quad + self.xi2_ff(
                    g, coeffs.nonzero("ff", c, even, even), rest, fer)
            if quad:
                acc = acc + ring.rational(Fraction(1, 2)) * quad
            for kinds in ((False, False), (True, True)):
                single = self._single_f(g, c, rest, fer, *kinds)
                if single is not None:
                    acc = acc + single
        return -(self.inv_tau_eps * acc)

    def solve_fermionic_entry(self, g, bos, fer):
        """Value of F(bos | fer[0], fer[1:]) from the fermionic constraint."""
        eps = self.epsilon
        f0 = fer[0]
        c = (f0 + 3 - eps) // 2
        assert 2 * c + eps - 3 == f0 and c >= 1 and f0 >= 2
        ring = self.ring
        coeffs = self.coeffs
        rest = fer[1:]
        chi = 2 * g + len(bos) + len(fer)
        acc = self.xi0_rest(g, bos, fer, True)
        if chi == 3:
            # base level: one bosonic and one trailing fermionic slot
            assert len(bos) == 1 and len(fer) == 2
            j = bos[0]
            k = rest[0]
            val = coeffs.value("bf", c, -j, -k)
            if val:
                denom = 2 if k == 0 else 1
                acc = acc + val * ring.rational(Fraction(j, denom))
        else:
            odd, even = slot_ranges(deficit(g, bos, rest, eps))
            quad = self.xi2_bf(g, coeffs.nonzero("bf", c, odd, even),
                               bos, rest)
            if quad:
                acc = acc + quad
            for kinds in ((False, True), (True, False)):
                single = self._single_f(g, c, bos, rest, *kinds)
                if single is not None:
                    acc = acc + single
        return -(self.inv_tau_eps * acc)

    def _single_f(self, g, c, bos, fer, removed_fermionic,
                  added_fermionic):
        """The single-F terms of operator c beside remaining indices bos
        and fer, or None if all vanish: each index j of the removed kind
        replaced by each k of the added kind, times C(c, -j, k) (C^bf reads
        its bosonic argument first) and j, or the position sign of a
        fermionic j, halved at j = 0."""
        removed = fer if removed_fermionic else bos
        if not removed:
            return None
        out = None
        coeffs = self.coeffs
        kind = "ff" if removed_fermionic and added_fermionic else \
            "bf" if removed_fermionic or added_fermionic else "bb"
        transposed = removed_fermionic and not added_fermionic
        # the entry read has level chi - 1, for the entry at chi = 2g +
        # len(bos) + len(fer) + 1, and k takes what the indices beside it
        # leave of that level's bound
        budget = deficit(g, bos, fer, self.epsilon)
        for pos, j in enumerate(removed):
            sub = removed[:pos] + removed[pos + 1:]
            added = slot_ranges(budget + j)[added_fermionic]
            weight = self.ring.rational(
                Fraction((-1) ** pos, 2 if j == 0 else 1)
                if removed_fermionic else j)
            rest = (bos, sub) if removed_fermionic else (sub, fer)
            for first, second, val in (
                    coeffs.nonzero(kind, c, added, (-j,)) if transposed
                    else coeffs.nonzero(kind, c, (-j,), added)):
                term = self.flookup(g, *_place(
                    first if transposed else second, added_fermionic, *rest))
                if term:
                    term = val * term * weight
                    out = term if out is None else out + term
        return out

    # --- driver ------------------------------------------------------------

    def compute_entry(self, g, bos, fer):
        """Solve the constraint instance determining the canonical entry."""
        if bos:
            # solve with the largest bosonic index as the unknown slot
            first = bos[-1]
            rest = bos[:-1]
            return self.solve_bosonic_entry(g, (first,) + rest, fer)
        if fer:
            if fer[0] == 0:
                # zero mode first: antisymmetry off the solved entry
                value = self.solve_fermionic_entry(
                    g, bos, (fer[1], 0) + fer[2:])
                return -value
            return self.solve_fermionic_entry(g, bos, fer)
        raise UnsolvedEntry(f"no slot to solve for in g={g}")


def _place(index, fermionic, bos, fer):
    """(bos, fer) with index prepended to the slot of the given kind."""
    return (bos, (index,) + fer) if fermionic else ((index,) + bos, fer)


def _contract(row, entries, out):
    """out plus C * entries[l] over the (l, C) of a coefficient row."""
    for l, val in row:
        entry = entries.get(l)
        if entry is not None:
            out = out + val * entry
    return out


def run_airy(curve, chi_max):
    """All F entries for 3 <= 2g+n+2m <= chi_max via the constraint solver."""
    return AirySolver(curve, chi_max).run()


def run_bosonic(curve, chi_max):
    """Bosonic-only constraint system (halved central constant)."""
    return AirySolver(curve, chi_max, bosonic_only=True).run()
