"""Constraint-recursion solver.

Builds the coefficient tables of the quadratic constraint operators from
the curve data, seeds the level chi = 3 entries from the closed-form base
equations, and then solves each level chi >= 4 equation for its unique
leading-index unknown. Entries are computed lazily with memoization, so a
single high-level query only touches the sectors it actually depends on.
A bosonic-only mode (fermionic content dropped, halved central constant)
supports the genus-scaling reduction checks.
"""

from __future__ import annotations

from fractions import Fraction

from .curve import complete_psi
from .store import LazyTensor, UnsolvedEntry, index_bound, iter_partitions


class SingularLeading(Exception):
    pass


class ConstraintCoeffs:
    """Tables C^{bb}, C^{ff}, C^{bf}, D derived from curve parameters.

    Conventions: phi[a, b] = 0 unless a, b >= 1; psi[a, b] = 0 unless
    a, b >= 0; the bosonic zero mode is absent, so any table entry whose
    bosonic argument is 0 vanishes identically.
    """

    def __init__(self, curve, max_index):
        self.curve = curve
        self.ring = curve.ring
        psi_max = max(curve.max_polarization_index(), max_index + 4, 4)
        self.psi = complete_psi(curve, psi_max)
        self._half = self.ring.rational(Fraction(1, 2))

    def phi_at(self, a, b):
        if a < 1 or b < 1:
            return self.ring.zero()
        return self.curve.phi_at(a, b)

    def psi_at(self, a, b):
        if a < 0 or b < 0:
            return self.ring.zero()
        return self.psi.get((a, b), self.ring.zero())

    def c_bb(self, c, j, k):
        """Coefficient of the ordered bosonic pair (j, k) in operator c."""
        if j == 0 or k == 0:
            return self.ring.zero()
        ring = self.ring
        out = ring.zero()
        sign_j = 1 if j % 2 else -1  # (-1)^(j-1)
        sign_k = 1 if k % 2 else -1
        if j + k == 2 * c - 4:
            out = out + ring.rational(sign_j)
        val = self.phi_at(j - 2 * c + 4, k)
        if val:
            out = out + val * ring.rational(Fraction(sign_j, k))
        val = self.phi_at(j, k - 2 * c + 4)
        if val:
            out = out + val * ring.rational(Fraction(sign_k, j))
        if c == 1:
            val = self.phi_at(1, j) * self.phi_at(1, k)
            if val:
                out = out + val * ring.rational(Fraction(1, j * k))
        return out

    def c_ff(self, c, j, k):
        """Coefficient of the ordered fermionic pair (j, k) in operator c."""
        ring = self.ring
        out = ring.zero()
        sign_j = (-1) ** (j % 2)  # (-1)^j
        sign_k = (-1) ** (k % 2)
        if j + k == 2 * c - 4:
            out = out + ring.rational(Fraction(sign_j * (k - j), 2))
        if c == 1:
            out = out + (self.psi_at(j, 2) * self.psi_at(k, 0)
                         - self.psi_at(j, 0) * self.psi_at(k, 2))
        val = self.psi_at(j, k - 2 * c + 4)
        if val:
            out = out + val * ring.rational(sign_k * (k - c + 2))
        val = self.psi_at(k, j - 2 * c + 4)
        if val:
            out = out - val * ring.rational(sign_j * (j - c + 2))
        return out

    def c_bf(self, c, j, k):
        """Coefficient of the bosonic/fermionic pair (j, k) in operator c."""
        if j == 0:
            return self.ring.zero()
        ring = self.ring
        out = ring.zero()
        sign_j = (-1) ** (j % 2)
        sign_k = (-1) ** (k % 2)
        if j + k == 2 * c - 3:
            out = out + ring.rational(sign_k)
        val = self.phi_at(j, k - 2 * c + 3)
        if val:
            out = out + val * ring.rational(Fraction(sign_k, j))
        val = self.psi_at(k, j - 2 * c + 3)
        if val:
            out = out - val * ring.rational(sign_j)
        if c == 1:
            val = self.phi_at(j, 1) * self.psi_at(k, 0)
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
            out = out + self._half * self.phi_at(1, 1)
            if not bosonic_only:
                out = out + self._half * self.psi_at(0, 2)
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
        self.tau = curve.tau
        self.tau_eps = curve.tau.get(self.epsilon)
        if not self.tau_eps:
            raise SingularLeading("leading dilaton-shift coefficient is zero")
        self.inv_tau_eps = self.tau_eps.invert()
        bound = index_bound(chi_max, self.epsilon)
        self.coeffs = ConstraintCoeffs(
            curve, (bound + 4 - self.epsilon) // 2 + 2)

    # --- leading sums ------------------------------------------------------

    def xi0_bos_rest(self, g, bos, fer, skip_p):
        """Leading-sum terms tau_p F(2c+p-4, J|K) excluding p = skip_p.

        bos[0] is the solved-for slot, equal to the index at p = skip_p.
        """
        base = bos[0] - skip_p  # = 2c - 4
        out = self.ring.zero()
        for p, tau_p in self.tau.items():
            if p == skip_p:
                continue
            sign = 1 if p % 2 else -1
            val = self.flookup(g, (base + p,) + bos[1:], fer)
            if val:
                out = out + tau_p * val * self.ring.rational(sign)
        return out

    def xi0_fer_rest(self, g, bos, fer, skip_p):
        base = fer[0] - skip_p  # = 2c - 3
        out = self.ring.zero()
        for p, tau_p in self.tau.items():
            if p == skip_p:
                continue
            sign = 1 if p % 2 else -1
            val = self.flookup(g, bos, (base + p,) + fer[1:])
            if val:
                out = out + tau_p * val * self.ring.rational(sign)
        return out

    # --- quadratic combinations -------------------------------------------
    #
    # Partition terms with an unstable factor are skipped before either
    # lookup. This is not just an optimization: a same-level factor in a
    # product always comes paired with an unstable one, and looking it up
    # would recurse into entries whose own dependencies may still be
    # mid-computation, where the memoized read is not yet valid. With the
    # guard, the only same-level lookups are the leading-sum terms, whose
    # solved index strictly increases, so the dependency graph is acyclic.

    def xi2_bb(self, g, k, l, bos, fer):
        """F_{g-1}(k,l,J|K) + sum of signed products F(k,J1|K1)F(l,J2|K2)."""
        return self._xi2(g, bos, fer, ((k,), ()), ((l,), ()), 1)

    def xi2_ff(self, g, k, l, bos, fer):
        """-F_{g-1}(J|k,l,K) + sum of signed products F(J1|k,K1)F(J2|l,K2)."""
        return self._xi2(g, bos, fer, ((), (k,)), ((), (l,)), -1)

    def xi2_bf(self, g, k, l, bos, fer):
        """F_{g-1}(k,J|l,K) + sum of signed products F(k,J1|K1)F(J2|l,K2)."""
        return self._xi2(g, bos, fer, ((k,), ()), ((), (l,)), 1)

    def _xi2(self, g, bos, fer, k_slot, l_slot, lead_sign):
        """The quadratic sum with k and l in the given (bosonic, fermionic)
        slot pairs: lead_sign * F_{g-1}(k, l, ...) plus the signed products
        F_{g1}(k, J1|K1) F_{g-g1}(l, J2|K2) over partitions of J and K."""
        kb, kf = k_slot
        lb, lf = l_slot
        out = self.flookup(g - 1, kb + lb + bos, kf + lf + fer)
        if lead_sign == -1:
            out = -out
        for bos1, bos2, _ in iter_partitions(bos):
            for fer1, fer2, sign in iter_partitions(fer):
                for g1 in range(g + 1):
                    if not _stable_pair(g, g1, bos1, fer1, bos2, fer2):
                        continue
                    a = self.flookup(g1, kb + bos1, kf + fer1)
                    if not a:
                        continue
                    b = self.flookup(g - g1, lb + bos2, lf + fer2)
                    if not b:
                        continue
                    term = a * b
                    out = out + (term if sign == 1 else -term)
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
        rest = bos[1:]
        chi = 2 * g + len(bos) + len(fer)
        acc = self.xi0_bos_rest(g, bos, fer, eps)
        if chi == 3:
            # base level: the quadratic terms collapse to constants
            if len(bos) == 3:
                j, k = rest
                val = self.coeffs.c_bb(c, -j, -k)
                if val:
                    acc = acc + val * ring.rational(j * k)
            elif len(bos) == 1 and len(fer) == 0:
                acc = acc + self.coeffs.d(c, self.bosonic_only)
            elif len(bos) == 1 and len(fer) == 2:
                j, k = fer
                val = self.coeffs.c_ff(c, -j, -k)
                if val:
                    denom = 1 + (1 if j == 0 else 0) + (1 if k == 0 else 0)
                    acc = acc + val * ring.rational(Fraction(1, denom))
        else:
            # the quadratic sums carry the 1/2 prefactor of the bilinear
            # part of the constraint operators (it cancels only in the
            # mixed single-F terms below, by index symmetry)
            half = ring.rational(Fraction(1, 2))
            kmax = index_bound(chi - 1, eps)
            for k in range(0, kmax + 1):
                for l in range(0, kmax + 1):
                    val = self.coeffs.c_bb(c, k, l)
                    if val:
                        term = self.xi2_bb(g, k, l, rest, fer)
                        if term:
                            acc = acc + half * val * term
                    if not self.bosonic_only:
                        val = self.coeffs.c_ff(c, k, l)
                        if val:
                            term = self.xi2_ff(g, k, l, rest, fer)
                            if term:
                                acc = acc + half * val * term
            for k in range(0, kmax + 1):
                for pos in range(len(rest)):
                    val = self.coeffs.c_bb(c, -rest[pos], k)
                    if val:
                        sub = rest[:pos] + rest[pos + 1:]
                        term = self.flookup(g, (k,) + sub, fer)
                        if term:
                            acc = acc + val * term \
                                * ring.rational(rest[pos])
                for pos in range(len(fer)):
                    val = self.coeffs.c_ff(c, -fer[pos], k)
                    if val:
                        sub = fer[:pos] + fer[pos + 1:]
                        term = self.flookup(g, rest, (k,) + sub)
                        if term:
                            denom = 2 if fer[pos] == 0 else 1
                            sign = Fraction((-1) ** pos, denom)
                            acc = acc + val * term * ring.rational(sign)
        return -(self.inv_tau_eps * acc)

    def solve_fermionic_entry(self, g, bos, fer):
        """Value of F(bos | fer[0], fer[1:]) from the fermionic constraint."""
        eps = self.epsilon
        f0 = fer[0]
        c = (f0 + 3 - eps) // 2
        assert 2 * c + eps - 3 == f0 and c >= 1 and f0 >= 2
        ring = self.ring
        rest = fer[1:]
        chi = 2 * g + len(bos) + len(fer)
        acc = self.xi0_fer_rest(g, bos, fer, eps)
        if chi == 3:
            # base level: one bosonic and one trailing fermionic slot
            assert len(bos) == 1 and len(fer) == 2
            j = bos[0]
            k = rest[0]
            val = self.coeffs.c_bf(c, -j, -k)
            if val:
                denom = 2 if k == 0 else 1
                acc = acc + val * ring.rational(Fraction(j, denom))
        else:
            kmax = index_bound(chi - 1, eps)
            for k in range(0, kmax + 1):
                for l in range(0, kmax + 1):
                    val = self.coeffs.c_bf(c, k, l)
                    if val:
                        term = self.xi2_bf(g, k, l, bos, rest)
                        if term:
                            acc = acc + val * term
            for k in range(0, kmax + 1):
                for pos in range(len(bos)):
                    val = self.coeffs.c_bf(c, -bos[pos], k)
                    if val:
                        sub = bos[:pos] + bos[pos + 1:]
                        term = self.flookup(g, sub, (k,) + rest)
                        if term:
                            acc = acc + val * term \
                                * ring.rational(bos[pos])
                for pos in range(len(rest)):
                    val = self.coeffs.c_bf(c, k, -rest[pos])
                    if val:
                        sub = rest[:pos] + rest[pos + 1:]
                        term = self.flookup(g, (k,) + bos, sub)
                        if term:
                            denom = 2 if rest[pos] == 0 else 1
                            sign = Fraction((-1) ** pos, denom)
                            acc = acc + val * term * ring.rational(sign)
        return -(self.inv_tau_eps * acc)

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


def _stable_pair(g, g1, bos1, fer1, bos2, fer2):
    """Both factors of a product partition have a stable index (chi >= 3)."""
    return (2 * g1 + 1 + len(bos1) + len(fer1) > 2
            and 2 * (g - g1) + 1 + len(bos2) + len(fer2) > 2)


def run_airy(curve, chi_max):
    """All F entries for 3 <= 2g+n+2m <= chi_max via the constraint solver."""
    return AirySolver(curve, chi_max).run()


def run_bosonic(curve, chi_max):
    """Bosonic-only constraint system (halved central constant)."""
    return AirySolver(curve, chi_max, bosonic_only=True).run()
