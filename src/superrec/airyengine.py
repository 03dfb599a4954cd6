"""Constraint-recursion solver.

Builds the coefficient tables of the quadratic constraint operators from
the curve data, seeds the level chi = 3 entries from the closed-form base
equations, and then solves each level chi >= 4 equation for its unique
leading-index unknown. Each such equation is one sparse contraction: the
coefficients are evaluated once per solver into tables of their nonzero
values, whose (k, l) pairs drive the lookups of lower-level entries. The
splits of the remaining indices come once per entry from
store.factor_splits, the enumeration the residue solver reads too, each
with an int weight over the constraint's denominator. The lower-level
factors of each product are read as slices of the sector index (see
store.LazyTensor): the nonzero entries with the k or l slot open, joined
with the coefficient table by index, so no index up to the level bound is
probed. Each inner contraction over l stays a raw sum, which multiplies
its k factor with no Fraction made (scalars.mul_raw_into). The single-F
terms read their entries of the level below as slices too, one per removed
index; only the same-level leading sum looks entries up one by one.
Entries are computed lazily with memoization; a slice is complete only
once its level is, so a single high-level query first solves every lower
level in full.
A bosonic-only mode (fermionic content dropped, halved central constant)
supports the genus-scaling reduction checks.
"""

from __future__ import annotations

from .scalars import add_into, finish, mul_into, mul_raw_into
from .store import (LazyTensor, UnsolvedEntry, deficit, factor_splits,
                    insert_index, iter_partitions, slot_ranges)


class ConstraintCoeffs:
    """Tables C^{bb}, C^{ff}, C^{bf}, D derived from curve parameters.

    phi and psi are read from the curve (`CurveData.phi_at`/`psi_at`),
    which is zero at an index below 1 (phi) or 0 (psi); the bosonic zero
    mode is absent, so any table entry whose bosonic argument is 0
    vanishes identically. Each coefficient is one raw sum of its terms,
    finished once. `value` and `nonzero` evaluate each coefficient once
    and keep the nonzero ones per range.
    """

    def __init__(self, curve):
        self.curve = curve
        self.ring = curve.ring
        self._one = self.ring.one().terms
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
        phi, acc = self.curve.phi_at, {}
        sign_j = 1 if j % 2 else -1  # (-1)^(j-1)
        sign_k = 1 if k % 2 else -1
        if j + k == 2 * c - 4:
            add_into(acc, self._one, sign_j)
        add_into(acc, phi(j - 2 * c + 4, k).terms, sign_j, k)
        add_into(acc, phi(j, k - 2 * c + 4).terms, sign_k, j)
        if c == 1:
            mul_into(self.ring, acc, phi(1, j).terms.items(),
                     phi(1, k).terms.items(), 1, j * k)
        return finish(self.ring, acc) or self.ring.zero()

    def c_ff(self, c, j, k):
        """Coefficient of the ordered fermionic pair (j, k) in operator c."""
        psi, acc = self.curve.psi_at, {}
        sign_j = (-1) ** (j % 2)  # (-1)^j
        sign_k = (-1) ** (k % 2)
        if j + k == 2 * c - 4:
            add_into(acc, self._one, sign_j * (k - j), 2)
        if c == 1:
            mul_into(self.ring, acc, psi(j, 2).terms.items(),
                     psi(k, 0).terms.items())
            mul_into(self.ring, acc, psi(j, 0).terms.items(),
                     psi(k, 2).terms.items(), -1)
        add_into(acc, psi(j, k - 2 * c + 4).terms, sign_k * (k - c + 2))
        add_into(acc, psi(k, j - 2 * c + 4).terms, -sign_j * (j - c + 2))
        return finish(self.ring, acc) or self.ring.zero()

    def c_bf(self, c, j, k):
        """Coefficient of the bosonic/fermionic pair (j, k) in operator c."""
        if j == 0:
            return self.ring.zero()
        phi, psi, acc = self.curve.phi_at, self.curve.psi_at, {}
        sign_j = (-1) ** (j % 2)
        sign_k = (-1) ** (k % 2)
        if j + k == 2 * c - 3:
            add_into(acc, self._one, sign_k)
        add_into(acc, phi(j, k - 2 * c + 3).terms, sign_k, j)
        add_into(acc, psi(k, j - 2 * c + 3).terms, -sign_j)
        if c == 1:
            mul_into(self.ring, acc, phi(j, 1).terms.items(),
                     psi(k, 0).terms.items(), 1, j)
        return finish(self.ring, acc) or self.ring.zero()

    def d(self, c, bosonic_only=False):
        """Constant term of operator c (halved central part if bosonic)."""
        acc = {}
        if c == 2:
            add_into(acc, self._one, 1, 8 if bosonic_only else 4)
        if c == 1:
            add_into(acc, self.curve.phi_at(1, 1).terms, 1, 2)
            if not bosonic_only:
                add_into(acc, self.curve.psi_at(0, 2).terms, 1, 2)
        return finish(self.ring, acc) or self.ring.zero()


class AirySolver(LazyTensor):
    # bound in this class body, not only inherited, so that perfbench can
    # wrap each engine's lookups, levels and runs on their own
    flookup = LazyTensor.flookup
    level_keys = LazyTensor.level_keys
    run = LazyTensor.run

    def __init__(self, curve, chi_max, bosonic_only=False):
        curve.check_depth(chi_max)
        super().__init__(curve.ring, chi_max, curve.epsilon, bosonic_only)
        # (p, +-tau_p) for p != epsilon, in increasing p: _solve stops at
        # the first p whose lookup falls above the index simplex
        self.dilaton = sorted(
            (p, tau_p if p % 2 else -tau_p)
            for p, tau_p in curve.tau.items() if p != self.epsilon)
        self.inv_tau_eps = curve.tau[self.epsilon].invert()
        self.coeffs = ConstraintCoeffs(curve)

    # --- quadratic combinations -------------------------------------------

    def xi2_bb(self, acc, g, pairs, bos, fer, den):
        """Sum of C * [F_{g-1}(k,l,J|K) + signed F(k,J1|K1)F(l,J2|K2)]."""
        self._xi2(acc, g, pairs, bos, fer, den, False, False)

    def xi2_ff(self, acc, g, pairs, bos, fer, den):
        """Sum of C * [-F_{g-1}(J|k,l,K) + signed F(J1|k,K1)F(J2|l,K2)]."""
        self._xi2(acc, g, pairs, bos, fer, den, True, True)

    def xi2_bf(self, acc, g, pairs, bos, fer, den):
        """Sum of C * [F_{g-1}(k,J|l,K) + signed F(k,J1|K1)F(J2|l,K2)]."""
        self._xi2(acc, g, pairs, bos, fer, den, False, True)

    def _xi2(self, acc, g, pairs, bos, fer, den, k_fermionic, l_fermionic):
        """Add into the raw sum acc 1/den times the quadratic sum over
        pairs (k, l, C) with k and l in the given (fermionic or bosonic)
        slots: C times the F_{g-1} lead term plus the signed products
        F_{g1}(k, J1|K1) F_{g-g1}(l, J2|K2) over the splits of J and K (see
        store.factor_splits), for canonical J = bos and K = fer.

        The lead term is read with l opened in front of k: that is
        F_{g-1}(k, l, ...) for a bosonic k or l, and F_{g-1}(J|l,k,K) =
        -F_{g-1}(J|k,l,K) for two fermions, the lead term of xi2_ff."""
        if not pairs:
            return
        ring = self.ring
        rows = {}
        for k, l, val in pairs:
            rows.setdefault(k, []).append((l, val))
        if g:
            for k, row in rows.items():
                opened, sign = insert_index(k, k_fermionic, bos, fer)
                if sign:
                    _contract(ring, row, self.slice(
                        g - 1, *opened, l_fermionic), acc, sign, den)
        for _, bos1, fer1, bos2, fer2, weight, genera in factor_splits(
                g, bos, iter_partitions(fer), (k_fermionic,)):
            for g1 in genera:
                firsts = self.slice(g1, bos1, fer1, k_fermionic)
                if not firsts:
                    continue
                seconds = self.slice(g - g1, bos2, fer2, l_fermionic)
                if not seconds:
                    continue
                for k, a in firsts.items():
                    row = rows.get(k)
                    if row is not None:
                        inner = {}
                        _contract(ring, row, seconds, inner, 1, 1)
                        mul_raw_into(ring, acc, a.terms, inner, weight, den)

    # --- level equations ---------------------------------------------------

    def solve_bosonic_entry(self, g, bos, fer):
        """Value of F(bos[0], bos[1:] | fer) from the bosonic constraint."""
        return self._solve(g, bos, fer, False)

    def solve_fermionic_entry(self, g, bos, fer):
        """Value of F(bos | fer[0], fer[1:]) from the fermionic constraint."""
        return self._solve(g, bos, fer, True)

    def _solve(self, g, bos, fer, fermionic):
        """Value of the entry from the constraint whose unknown, times
        tau_epsilon, is bos[0] (fermionic: fer[0]); every other term is
        looked up (and computed recursively if needed) into one raw sum."""
        eps = self.epsilon
        lead = (fer if fermionic else bos)[0]
        c = (lead + 4 - fermionic - eps) // 2
        if (lead + eps + fermionic) % 2 or c < 1 or (fermionic and lead < 2):
            raise UnsolvedEntry(f"no constraint leads with index {lead} in "
                                f"{'fer' if fermionic else 'bos'}[0]")
        ring, coeffs = self.ring, self.coeffs
        rest = (bos, fer[1:]) if fermionic else (bos[1:], fer)
        acc = {}  # the raw sum of every term
        # the leading sum: tau_p F(2c+p-4, J|K) (fermionic: tau_p
        # F(J|2c+p-3, K)) over p != epsilon. The term of p reads an entry of
        # the same level whose deficit is D + epsilon - p, D the deficit of
        # this entry, so it is zero for every p > D + epsilon (see
        # store.index_bound).
        last = eps + deficit(g, bos, fer, eps)
        for p, signed_tau in self.dilaton:
            if p > last:
                break
            val = self.flookup(g, *_place(lead - eps + p, fermionic, *rest))
            if val:
                mul_into(ring, acc, signed_tau.terms.items(),
                         val.terms.items())
        if 2 * g + len(bos) + len(fer) == 3:
            # base level: the quadratic terms collapse to constants
            if fermionic:
                # one bosonic and one trailing fermionic slot
                (j,), (k,) = rest
                add_into(acc, coeffs.value("bf", c, -j, -k).terms,
                         j, 2 if k == 0 else 1)
            elif len(bos) == 3:
                j, k = rest[0]
                add_into(acc, coeffs.value("bb", c, -j, -k).terms, j * k)
            elif fer:
                j, k = fer
                add_into(acc, coeffs.value("ff", c, -j, -k).terms,
                         1, 1 + (j == 0) + (k == 0))
            else:
                add_into(acc, coeffs.d(c, self.bosonic_only).terms)
        else:
            # k and l take what the other indices leave of the bound of
            # level chi - 1, which every factor of the quadratic terms
            # keeps (see store.index_bound)
            odd, even = slot_ranges(deficit(g, *rest, eps))
            if fermionic:
                self.xi2_bf(acc, g, coeffs.nonzero("bf", c, odd, even),
                            *rest, 1)
                kind_pairs = ((False, True), (True, False))
            else:
                # the 1/2 prefactor of the bilinear part of the constraint
                # operators (it cancels only in the mixed single-F terms,
                # by index symmetry)
                self.xi2_bb(acc, g, coeffs.nonzero("bb", c, odd, odd),
                            *rest, 2)
                if not self.bosonic_only:
                    self.xi2_ff(acc, g, coeffs.nonzero("ff", c, even, even),
                                *rest, 2)
                kind_pairs = ((False, False), (True, True))
            for kinds in kind_pairs:
                self._single_f(acc, g, c, *rest, *kinds)
        total = finish(ring, acc)
        return self.zero if total is None else -(self.inv_tau_eps * total)

    def _single_f(self, acc, g, c, bos, fer, removed_fermionic,
                  added_fermionic):
        """Add into the raw sum acc the single-F terms of operator c beside
        canonical remaining indices bos and fer: each index j of the
        removed kind replaced by each k of the added kind, times C(c, -j, k)
        (C^bf reads its bosonic argument first) and j, or the position sign
        of a fermionic j, halved at j = 0.

        The entries F(k, ...) beside each j are one slice with the added
        slot open, joined with the coefficient row of j by k. They sit at
        level chi - 1, for the entry at chi = 2g + len(bos) + len(fer) + 1,
        so the slice is complete when read."""
        removed = fer if removed_fermionic else bos
        ring, coeffs = self.ring, self.coeffs
        kind = "ff" if removed_fermionic and added_fermionic else \
            "bf" if removed_fermionic or added_fermionic else "bb"
        transposed = removed_fermionic and not added_fermionic
        # k takes what the indices beside it leave of the bound of level
        # chi - 1
        budget = deficit(g, bos, fer, self.epsilon)
        for pos, j in enumerate(removed):
            sub = removed[:pos] + removed[pos + 1:]
            if removed_fermionic:
                rest = bos, sub
                weight, den = (-1 if pos % 2 else 1), (2 if j == 0 else 1)
            else:
                rest, weight, den = (sub, fer), j, 1
            entries = self.slice(g, *rest, added_fermionic)
            if not entries:
                continue
            added = slot_ranges(budget + j)[added_fermionic]
            if transposed:
                row = [(k, val) for k, _, val in coeffs.nonzero(
                    kind, c, added, (-j,))]
            else:
                row = [(k, val) for _, k, val in coeffs.nonzero(
                    kind, c, (-j,), added)]
            _contract(ring, row, entries, acc, weight, den)

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


def _contract(ring, row, entries, acc, weight, den):
    """Add weight/den * C * entries[l] over the (l, C) of a coefficient row
    into the raw sum acc (see scalars.mul_into)."""
    for l, val in row:
        entry = entries.get(l)
        if entry is not None:
            mul_into(ring, acc, val.terms.items(), entry.terms.items(),
                     weight, den)


def run_airy(curve, chi_max):
    """All F entries for 3 <= 2g+n+2m <= chi_max via the constraint solver."""
    return AirySolver(curve, chi_max).run()


def run_bosonic(curve, chi_max):
    """Bosonic-only constraint system (halved central constant)."""
    return AirySolver(curve, chi_max, bosonic_only=True).run()
