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
from .store import (IndexBoundError, LazyTensor, canonical, deficit,
                    distinct_splits, insert_index, iter_partitions,
                    slot_ranges)


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
    l) is read off from a single series division. It reads the quotient
    only at exponents <= -2, so the quadratic series only through `top`.
    """

    def __init__(self, bases):
        self.inv_delta = bases.delta_omega.invert()
        self.top = -2 - self.inv_delta.min_exp

    def _column(self, q, expected_dz, kind_error, parity, bound):
        """Column l -> coefficient, for l >= 1 of the given parity; bound is
        the largest index the entries of the column may take, so a nonzero
        coefficient above it raises IndexBoundError."""
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
        self.bases = CurveBases(curve, chi_max)
        self.kernel = KernelWeights(self.bases)
        self._half = self.ring.rational(Fraction(1, 2))
        self._factors = {}
        self._columns = {}

    # --- lower correlation series in the recursion variable -----------------

    def eval_lower(self, g, bos, fer, fermionic):
        """Slot series of a lower correlation form with z in one (bosonic
        or fermionic) slot beside the canonical indices bos/fer, or None
        when it is zero: a two-point bilinear in closed form, else the
        basis series weighted by the entries of the slice with that slot
        open."""
        closed = not g and (len(bos), len(fer)) == \
            ((0, 1) if fermionic else (1, 0))
        row = None if closed else self.slice(g, bos, fer, fermionic)
        if not (closed or row):
            return None
        key = (g, bos, fer, fermionic)
        out = self._factors.get(key)
        if out is not None:
            return out
        bases = self.bases
        if not closed:
            basis = (bases.dxi_minus, bases.eta_minus)[fermionic]
            out = FormalSeries.zero(self.ring, bases.trunc,
                                    int(not fermionic), int(fermionic))
            for c, val in row.items():
                out = out + basis(c).scale(val)
        elif fermionic:
            k = fer[0]
            out = bases.eta_plus(k) if k else bases.eta_zero.scale(self._half)
        else:
            out = bases.dxi_plus(bos[0]).scale(bos[0])
        self._factors[key] = out
        return out

    # --- assembly ------------------------------------------------------------

    def assemble_QBB_FF(self, g, J, K):
        """Quadratic series with two bosonic or two fermionic z-slots: the
        weight-(dz^2) series whose extraction is the column l -> F(l, J|K).
        """
        return self._assemble(g, J, K, False)

    def assemble_QFB(self, g, J, Kx):
        """Quadratic series with one bosonic and one fermionic z-slot: the
        weight-(dz, odd) series whose extraction is l -> F(J | l, Kx)."""
        return self._assemble(g, J, Kx, True)

    def _assemble(self, g, J, K, fermionic):
        """The quadratic series for a fermionic (else bosonic) output slot:
        one product form per pair of z-slot kinds, (B, B) and (F, F) for a
        bosonic output and (B, F) for a fermionic one. Factors x and y give
        x.sigma(y) for (B, B), x.sigma(y) + sigma(x).y for (B, F), and
        (1/2)(x'.sigma(y) + sigma(x').y) for (F, F)."""
        pairs = ((False, True),) if fermionic else \
            ((False, False), (True, True))
        top = self.kernel.top
        q = FormalSeries.zero(self.ring, min(self.bases.trunc, top),
                              1 if fermionic else 2, int(fermionic))
        if g == 1 and not J and not K:
            # (bosonic output only) the F_0 terms of both pairs are the
            # two-point bilinears on the diagonal, in closed form
            q = q + self.bases.f0_diagonal
        for first, second, x, y, weight in self._factor_pairs(g, J, K, pairs):
            if first and second:
                prod = _product(x.derive(), y, True, top) \
                    .scale(self._half * weight)
            else:
                prod = _weighted(_product(x, y, second, top), weight)
            q = q + prod
        return q

    def _factor_pairs(self, g, J, K, pairs):
        """Each term as (first, second, x, y, weight): the slot kinds, the
        factors with z in each slot and an integer weight. First the
        F_{g-1} terms with both slots open (but not the two-point ones),
        weighted by the sign of opening the first; then the products over
        the splits of g, J and K, weighted by sign and multiplicity."""
        if g > 1 or g == 1 and (J or K):
            # the F_{g-1} entries have level 2g + |J| + |K|, and their
            # indices beside J and K share what J and K leave of its bound
            ranges = slot_ranges(deficit(g, J, K, self.epsilon))
            for first, second in pairs:
                basis = (self.bases.dxi_minus, self.bases.eta_minus)[first]
                for a in ranges[first]:
                    # for (F, F) the slice holds F(J|b,a,K) = -F(J|a,b,K) up
                    # to the sign of sorting a into K
                    opened, sign = insert_index(a, first, J, K)
                    if sign:
                        y = self.eval_lower(g - 1, *opened, second)
                        if y is not None:
                            yield first, second, basis(a), y, sign
        # a z-slot factor needs an even remaining fermion count beside a
        # bosonic slot and an odd one beside a fermionic slot
        splits = _splits_by_parity(K)
        for J1, J2, mult in distinct_splits(J):
            for g1 in range(g + 1):
                g2 = g - g1
                for first, second in pairs:
                    for K1, K2, rho in splits[first]:
                        # a bosonic factor of genus 0 and no remaining
                        # index is the one-point line factor, excluded from
                        # the series; the other factor is then the entry
                        # being solved, so neither slice may be read
                        if not (first or g1 or J1 or K1) or \
                                not (second or g2 or J2 or K2):
                            continue
                        x = self.eval_lower(g1, J1, K1, first)
                        if x is None:
                            continue
                        y = self.eval_lower(g2, J2, K2, second)
                        if y is not None:
                            yield first, second, x, y, rho * mult

    # --- extraction columns ---------------------------------------------------

    def _column(self, g, J, K, fermionic):
        """Column l -> F(l, J | K) from the bosonic-slot recursion, or
        F(J | l, K), l >= 2, from the fermionic-slot one (whose zero-mode
        row is completed by antisymmetry)."""
        key = (g, J, K, fermionic)
        column = self._columns.get(key)
        if column is None:
            # the output index l of F(l, J | K) may take what J and K leave
            # of the level bound; that entry's level is one above the
            # level of (g, J, K), whose bound is epsilon lower
            bound = deficit(g, J, K, self.epsilon) + self.epsilon
            if fermionic:
                column = self.kernel.extract_fermionic(
                    self.assemble_QFB(g, J, K), bound)
            else:
                column = self.kernel.extract_bosonic(
                    self.assemble_QBB_FF(g, J, K), bound)
            self._columns[key] = column
        return column

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
        J, Kx, sort_sign = canonical(J, Kx)
        if not sort_sign:
            return self.zero
        column = self._column(g, J, Kx, True)
        val = column.get(index, self.zero)
        return val if sign * sort_sign == 1 else -val

    def bosonic_value(self, g, bos, fer, pos=None):
        """F(bos | fer) by the bosonic-slot route, extracting slot `pos`;
        the remaining indices are sorted, with their sign, before
        assembly."""
        if pos is None:
            pos = len(bos) - 1
        rest, fer, sign = canonical(bos[:pos] + bos[pos + 1:], fer)
        if not sign:
            return self.zero
        val = self._column(g, rest, fer, False).get(bos[pos], self.zero)
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


def _product(x, y, mirrored, top):
    """x.sigma(y), plus sigma(x).y when the pair is mirrored (a fermionic
    second slot), through exponent top: each factor is cut where the other
    one's lowest exponent lifts it past top (T.T adds one more)."""
    odd = x.theta and y.theta
    x, y = x.cut(top - odd - y.min_exp), y.cut(top - odd - x.min_exp)
    prod = x * y.sigma()
    return prod + x.sigma() * y if mirrored else prod


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
