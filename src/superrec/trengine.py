"""Residue-recursion solver.

Computes the same coefficient tensors as the constraint solver, but by
assembling, for each target entry, the quadratic combination of lower
correlation series in the recursion variable z and extracting residues
against kernel weights z^l / delta-omega (bosonic slot) and
eta_l(z) / delta-omega (fermionic slot). Entries with both bosonic and
fermionic slots are computed through both routes and cross-checked.

Sign conventions: products of coefficients carry the fermionic
interleaving sign of the slot partition (as in the constraint solver's
quadratic combinations). The local involution sigma: z -> -z fixes T, so
it respects T^2 = z dz and is a ring automorphism of the series: the
mirrored copy sigma(x).y of a term x.sigma(y) is the sigma-image of that
term, and the mirrored half of an assembly is added as one sigma-image of
the other half. A (B, B) split and its swap are such a pair too.
"""

from __future__ import annotations

from fractions import Fraction

from .curve import CurveBases
from .scalars import add_into, finish_each, mul_into
from .series import FormalSeries, TruncationError
from .store import (IndexBoundError, LazyTensor, canonical, deficit,
                    distinct_splits, index_bound, insert_index,
                    iter_partitions, slot_ranges)


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
        # _assemble reads a factor through kernel.top minus the lowest
        # exponent of its partner. A slot basis series of index c starts at
        # -c - 1, and c is at most the index bound B of chi_max, so a
        # factor is read through kernel.top + B + 1 at most (a derived
        # partner starts one lower, but beside two T factors, whose product
        # lifts the cut by one): each row sum stops there.
        self._row_top = self.kernel.top + index_bound(chi_max,
                                                      self.epsilon) + 1
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
            ring = self.ring
            sums = {}  # exponent -> raw sum of the weighted basis terms
            trunc, min_exp = bases.trunc, bases.trunc + 1
            for c, val in row.items():
                series = basis(c).cut(self._row_top)
                trunc, min_exp = series.trunc, min(min_exp, series.min_exp)
                for k, coeff in series.coeffs.items():
                    acc = sums.get(k)
                    if acc is None:
                        acc = sums[k] = {}
                    mul_into(ring, acc, coeff.terms, val.terms)
            out = FormalSeries(ring, finish_each(ring, sums), trunc,
                               int(not fermionic), int(fermionic), min_exp)
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
        (1/2)(x'.sigma(y) + sigma(x').y) for (F, F).

        Every term is summed into one raw sum per exponent. A mirrored
        term, (B, F), (F, F) or the lower of a swapped pair of (B, B)
        splits, is m + sigma(m) for m = x.sigma(y) (x' for (F, F)): that is
        2m at the exponents k = dz_weight (mod 2) and zero at the others,
        so it is summed at those exponents only, with twice its weight
        (the 1/2 of (F, F) cancels). The series is known through the
        kernel's top exponent, or less where a product is known less far,
        and each product is summed only that far."""
        pairs = ((False, True),) if fermionic else \
            ((False, False), (True, True))
        ring = self.ring
        top = self.kernel.top
        dz_weight = 1 if fermionic else 2
        trunc = min(self.bases.trunc, top)
        min_exp = trunc + 1
        terms = []
        for first, mirrored, x, y, weight in self._factor_pairs(g, J, K,
                                                                pairs):
            odd = x.theta and y.theta
            # the product x.sigma(y) (x' for a first fermionic slot) is
            # known through the lower of its factors' truncations, each
            # lifted by the other's lowest exponent
            x_trunc, x_low = x.trunc - first, x.min_exp - first
            trunc = min(trunc, x_trunc + y.min_exp + odd,
                        y.trunc + x_low + odd)
            min_exp = min(min_exp, x_low + y.min_exp + odd)
            if mirrored and not first:
                weight *= 2  # for (F, F) the 1/2 cancels the 2
            terms.append((x, y, odd, weight, first, mirrored))
        sums = {}  # exponent -> raw sum of its terms
        if g == 1 and not J and not K:
            # (bosonic output only) the F_0 terms of both pairs are the
            # two-point bilinears on the diagonal, in closed form
            diagonal = self.bases.f0_diagonal
            trunc = min(trunc, diagonal.trunc)
            min_exp = min(min_exp, diagonal.min_exp)
            for k, val in diagonal.coeffs.items():
                if k <= trunc:
                    add_into(sums.setdefault(k, {}), val.terms)
        for x, y, odd, weight, derived, mirrored in terms:
            # y's coefficients by the parity of k2 + odd, on which the
            # sign sigma gives them depends
            seconds = ([], [])
            for k2 in sorted(y.coeffs):
                seconds[(k2 + odd) % 2].append((k2 + odd, y.coeffs[k2].terms))
            flip = (y.dz_weight + odd) % 2
            for k1, c1 in x.coeffs.items():
                w = weight
                if derived:  # x' has k1 c at k1 - 1
                    if not k1:
                        continue
                    w, k1 = weight * k1, k1 - 1
                left = c1.terms
                for parity in ((dz_weight - k1) % 2,) if mirrored else (0, 1):
                    signed = -w if (parity + flip) % 2 else w
                    for k2, right in seconds[parity]:
                        k = k1 + k2
                        if k > trunc:
                            break
                        acc = sums.get(k)
                        if acc is None:
                            acc = sums[k] = {}
                        mul_into(ring, acc, left, right, signed)
        return FormalSeries(ring, finish_each(ring, sums), trunc, dz_weight,
                            int(fermionic), min_exp)

    def _factor_pairs(self, g, J, K, pairs):
        """Each term as (first, mirrored, x, y, weight): whether the first
        z-slot is fermionic, whether the term's mirror is added by sigma,
        the factors with z in each slot and an integer weight. First the
        F_{g-1} terms with both slots open (but not the two-point ones),
        weighted by the sign of opening the first; then the products over
        the splits of g, J and K, weighted by sign and multiplicity. A
        (B, B) split and its swap give x.sigma(y) and its sigma-image with
        one weight when both K parts are even, so only the lower of the two
        is listed, as mirrored, and a split that is its own swap once."""
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
                            yield first, first or second, basis(a), y, sign
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
                        mirrored = first or second
                        if not mirrored and not (len(K1) % 2 or len(K2) % 2):
                            side, swap = (g1, J1, K1), (g2, J2, K2)
                            if side > swap:
                                continue
                            mirrored = side < swap
                        x = self.eval_lower(g1, J1, K1, first)
                        if x is None:
                            continue
                        y = self.eval_lower(g2, J2, K2, second)
                        if y is not None:
                            yield first, mirrored, x, y, rho * mult

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
