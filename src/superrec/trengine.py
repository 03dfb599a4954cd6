"""Residue-recursion solver.

Computes the same coefficient tensors as the constraint solver, but by
assembling, for each target entry, the quadratic combination of lower
correlation series in the recursion variable z and extracting residues
against kernel weights z^l / delta-omega (bosonic slot) and
eta_l(z) / delta-omega (fermionic slot). Entries with both bosonic and
fermionic slots are computed through both routes and cross-checked.

Sign conventions: products of coefficients carry the fermionic
interleaving sign of the slot partition (as in the constraint solver's
quadratic combinations); the two sigma-mirrored copies of each quadratic
term are generated explicitly because the odd basis series do not mirror
uniformly.
"""

from __future__ import annotations

from fractions import Fraction

from .curve import CurveBases
from .series import FormalSeries, TruncationError
# MissingDependency is raised by the inherited lookup; re-exported here
from .store import (IndexBoundError, LazyTensor, MissingDependency,
                    distinct_splits, index_bound, insert_index,
                    iter_partitions, slot_ranges, sort_with_sign)


class NonzeroEvenIndex(Exception):
    """The bosonic extraction produced a nonzero even-index coefficient."""


class NonzeroOddIndex(Exception):
    """The fermionic extraction produced a nonzero odd-index coefficient."""


class BothRoutesDisagree(Exception):
    """Bosonic-slot and fermionic-slot routes gave different values."""


class KernelWeights:
    """Extraction weights z^l / delta-omega and eta_l / delta-omega.

    Extraction is the residue pairing of the assembled quadratic series
    against these weights; a column of coefficients (one per output index
    l) is read off from a single series division.
    """

    def __init__(self, bases):
        self.ring = bases.ring
        self.inv_delta = bases.delta_omega.invert()

    def _column(self, q, expected_dz, kind_error, parity, bound):
        if (q.dz_weight, q.theta) != expected_dz:
            raise TruncationError(
                f"assembled series has weight {(q.dz_weight, q.theta)}, "
                f"expected {expected_dz}")
        # the residue against the weight of output index l sits at exponent
        # -l-1 of r (for the odd weight eta_l = z^(l-1) T via T^2 = z dz)
        r = q * self.inv_delta
        if r.min_exp <= -2 and r.trunc < -2:
            raise TruncationError(
                f"extraction column unresolved: truncation {r.trunc}")
        column = {}
        for exp, val in r.coeffs.items():
            index = -exp - 1
            if index < 1 or not val:
                continue
            if index % 2 != parity:
                raise kind_error(f"nonzero extraction at index {index}")
            if index > bound:
                raise IndexBoundError(
                    f"extraction index {index} beyond bound {bound}")
            column[index] = val
        return column

    def extract_bosonic(self, q, bound):
        """Column l -> Res z^l q / delta-omega (nonzero only for odd l)."""
        return self._column(q, (2, 0), NonzeroEvenIndex, 1, bound)

    def extract_fermionic(self, q, bound):
        """Column l -> Res eta_l q / delta-omega (nonzero only for even l)."""
        return self._column(q, (1, 1), NonzeroOddIndex, 0, bound)


class TrSolver(LazyTensor):
    # bound in this class body, not only inherited, so that perfbench can
    # wrap each engine's lookups, levels and runs on their own
    flookup = LazyTensor.flookup
    level_keys = LazyTensor.level_keys
    run = LazyTensor.run

    def __init__(self, curve, chi_max):
        super().__init__(curve.ring, chi_max, curve.epsilon)
        self.curve = curve
        self.bases = CurveBases(curve, chi_max)
        self.kernel = KernelWeights(self.bases)
        self._half = self.ring.rational(Fraction(1, 2))
        self._factors = {}
        self._br_columns = {}
        self._fr_columns = {}

    # --- lower correlation series in the recursion variable -----------------

    def eval_lower(self, g, bos, fer, fermionic):
        """Slot series of a lower correlation form with z in one slot.

        bos/fer are the remaining (external) canonical indices; the z-slot
        is bosonic or fermionic according to `fermionic`. The two-point
        bilinears are substituted in closed form; stable factors are sums
        of basis series weighted by the lower tensor entries of the slice
        with that slot open.
        """
        key = (g, bos, fer, fermionic)
        if key in self._factors:
            return self._factors[key]
        bases = self.bases
        if fermionic:
            if (g, len(bos), len(fer)) == (0, 0, 1):
                k = fer[0]
                out = bases.eta_plus(k) if k else \
                    bases.eta_zero.scale(self._half)
            else:
                out = FormalSeries.zero(self.ring, bases.trunc, 0, 1)
                for c, val in self.slice(g, bos, fer, True).items():
                    out = out + bases.eta_minus(c).scale(val)
        else:
            if (g, len(bos), len(fer)) == (0, 1, 0):
                j = bos[0]
                out = bases.dxi_plus(j).scale(j)
            else:
                out = FormalSeries.zero(self.ring, bases.trunc, 1, 0)
                for a, val in self.slice(g, bos, fer, False).items():
                    out = out + bases.dxi_minus(a).scale(val)
        self._factors[key] = out
        return out

    def has_lower(self, g, bos, fer, fermionic):
        """Whether eval_lower can be nonzero: a closed-form factor, or a
        nonempty slice."""
        closed = (0, 0, 1) if fermionic else (0, 1, 0)
        return (g, len(bos), len(fer)) == closed or \
            bool(self.slice(g, bos, fer, fermionic))

    # --- assembly ------------------------------------------------------------

    def assemble_QBB_FF(self, g, J, K):
        """Quadratic series with two bosonic or two fermionic z-slots.

        Target entry F(l, J | K); the output is a weight-(dz^2) series in z
        whose kernel extraction yields the column over l.
        """
        bases = self.bases
        chi = 2 * g + len(J) + 1 + len(K)
        bos_idx, fer_idx = slot_ranges(index_bound(chi - 1, self.epsilon))
        q = FormalSeries.zero(self.ring, bases.trunc, 2, 0)
        if g >= 1:
            if (g - 1, len(J) + 2, len(K)) == (0, 2, 0):
                q = q + bases.omega02.eval_diag("plain")
            else:
                for a in bos_idx:
                    opened, _ = insert_index(a, False, J, K)
                    row = self.slice(g - 1, *opened, False)
                    if row:
                        xa = bases.dxi_minus(a)
                        for b, val in row.items():
                            q = q + (xa * bases.dxi_minus(b).sigma()) \
                                .scale(val)
            if (g - 1, len(J), len(K) + 2) == (0, 0, 2):
                diag = bases.omega002.eval_diag("derived_first") \
                    + bases.omega002.eval_diag("derived_second")
                q = q + diag.scale(-self._half)
            else:
                for a in fer_idx:
                    opened, sign = insert_index(a, True, J, K)
                    row = self.slice(g - 1, *opened, True) if sign else None
                    if not row:
                        continue
                    # the slice holds F(J|b,a,K) = -F(J|a,b,K) up to the
                    # sign of sorting a into K
                    weight = self._half if sign == 1 else -self._half
                    da = bases.eta_minus(a).derive()
                    for b, val in row.items():
                        eb = bases.eta_minus(b)
                        prod = da * eb.sigma() + da.sigma() * eb
                        q = q + prod.scale(weight * val)
        # a z-slot factor needs an even remaining fermion count beside a
        # bosonic slot and an odd one beside a fermionic slot; K is even,
        # so K1 and K2 share their parity
        even, odd = _splits_by_parity(K)
        for J1, J2, mult in distinct_splits(J):
            for g1 in range(g + 1):
                g2 = g - g1
                # with no fermion either, a bosonic factor of genus 0 and
                # no remaining index is the one-point line factor, which
                # is excluded from the assembled series
                line1, line2 = not (g1 or J1), not (g2 or J2)
                for K1, K2, rho in even:
                    if (line1 and not K1) or (line2 and not K2):
                        continue
                    if not (self.has_lower(g1, J1, K1, False)
                            and self.has_lower(g2, J2, K2, False)):
                        continue
                    b1 = self.eval_lower(g1, J1, K1, False)
                    b2 = self.eval_lower(g2, J2, K2, False)
                    q = q + _weighted(b1 * b2.sigma(), rho * mult)
                for K1, K2, rho in odd:
                    if not (self.has_lower(g1, J1, K1, True)
                            and self.has_lower(g2, J2, K2, True)):
                        continue
                    f1 = self.eval_lower(g1, J1, K1, True)
                    f2 = self.eval_lower(g2, J2, K2, True)
                    d1 = f1.derive()
                    prod = d1 * f2.sigma() + d1.sigma() * f2
                    q = q + prod.scale(self._half * (rho * mult))
        return q

    def assemble_QFB(self, g, J, Kx):
        """Quadratic series with one bosonic and one fermionic z-slot.

        Target entry F(J | l, Kx); the output is a weight-(dz, odd) series
        in z whose kernel extraction yields the column over l.
        """
        bases = self.bases
        chi = 2 * g + len(J) + len(Kx) + 1
        bos_idx, _ = slot_ranges(index_bound(chi - 1, self.epsilon))
        q = FormalSeries.zero(self.ring, bases.trunc, 1, 1)
        if g >= 1:
            for a in bos_idx:
                opened, _ = insert_index(a, False, J, Kx)
                row = self.slice(g - 1, *opened, True)
                if row:
                    xa = bases.dxi_minus(a)
                    for c, val in row.items():
                        ec = bases.eta_minus(c)
                        prod = xa * ec.sigma() + xa.sigma() * ec
                        q = q + prod.scale(val)
        # the bosonic factor needs an even share of the odd Kx
        even, _ = _splits_by_parity(Kx)
        for J1, J2, mult in distinct_splits(J):
            for g1 in range(g + 1):
                g2 = g - g1
                line = not (g1 or J1)  # as in assemble_QBB_FF
                for K1, K2, rho in even:
                    if line and not K1:
                        continue
                    if not (self.has_lower(g1, J1, K1, False)
                            and self.has_lower(g2, J2, K2, True)):
                        continue
                    b = self.eval_lower(g1, J1, K1, False)
                    f = self.eval_lower(g2, J2, K2, True)
                    prod = b * f.sigma() + b.sigma() * f
                    q = q + _weighted(prod, rho * mult)
        return q

    # --- extraction columns ---------------------------------------------------

    def bosonic_column(self, g, J, K):
        """Column l -> F(l, J | K) from the bosonic-slot recursion."""
        key = (g, J, K)
        if key not in self._br_columns:
            chi = 2 * g + len(J) + 1 + len(K)
            q = self.assemble_QBB_FF(g, J, K)
            self._br_columns[key] = self.kernel.extract_bosonic(
                q, index_bound(chi, self.epsilon))
        return self._br_columns[key]

    def fermionic_column(self, g, J, Kx):
        """Column l -> F(J | l, Kx), l >= 2, from the fermionic-slot
        recursion (the zero-mode row is completed by antisymmetry)."""
        key = (g, J, Kx)
        if key not in self._fr_columns:
            chi = 2 * g + len(J) + len(Kx) + 1
            q = self.assemble_QFB(g, J, Kx)
            self._fr_columns[key] = self.kernel.extract_fermionic(
                q, index_bound(chi, self.epsilon))
        return self._fr_columns[key]

    def fermionic_value(self, g, J, fer):
        """F(J | fer) by the fermionic-slot route.

        The kernel misses the zero mode in the output slot, so a leading
        zero index is recovered from antisymmetry: F(J|0,a,K) = -F(J|a,0,K).
        The remaining indices are sorted, with their sign, before assembly.
        """
        if fer[0] == 0:
            index, Kx, sign = fer[1], (0,) + fer[2:], -1
        else:
            index, Kx, sign = fer[0], fer[1:], 1
        Kx, sort_sign = sort_with_sign(Kx)
        if not sort_sign:
            return self.zero
        column = self.fermionic_column(g, tuple(sorted(J)), Kx)
        val = column.get(index, self.zero)
        return val if sign * sort_sign == 1 else -val

    def bosonic_value(self, g, bos, fer, pos=None):
        """F(bos | fer) by the bosonic-slot route, extracting slot `pos`;
        the remaining indices are sorted, with their sign, before
        assembly."""
        if pos is None:
            pos = len(bos) - 1
        rest = tuple(sorted(bos[:pos] + bos[pos + 1:]))
        fer, sign = sort_with_sign(fer)
        if not sign:
            return self.zero
        val = self.bosonic_column(g, rest, fer).get(bos[pos], self.zero)
        return val if sign == 1 else -val

    # --- driver ----------------------------------------------------------------

    def compute_entry(self, g, bos, fer):
        """Canonical entry; mixed entries are cross-checked on both routes."""
        if bos:
            val = self.bosonic_value(g, bos, fer)
            if fer:
                alt = self.fermionic_value(g, bos, fer)
                if alt != val:
                    raise BothRoutesDisagree(
                        f"entry g={g}, {bos}|{fer}: bosonic route {val}, "
                        f"fermionic route {alt}")
            return val
        return self.fermionic_value(g, bos, fer)


def _weighted(series, weight):
    """series times a nonzero integer weight."""
    if weight == 1:
        return series
    if weight == -1:
        return -series
    return series.scale(weight)


def _splits_by_parity(K):
    """The signed splits of K, listed once: those with an even first part,
    then those with an odd one."""
    even, odd = [], []
    for split in iter_partitions(K):
        (odd if len(split[0]) % 2 else even).append(split)
    return even, odd


def run_tr(curve, chi_max):
    """All F entries for 3 <= 2g+n+2m <= chi_max via the residue solver."""
    return TrSolver(curve, chi_max).run()
