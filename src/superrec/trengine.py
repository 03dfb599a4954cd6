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
from .scalars import (add_into, finish, finish_ints, int_terms,
                      mul_ints_into, mul_raw_into)
from .series import TruncationError
from .store import (IndexBoundError, LazyTensor, ParityError, canonical,
                    deficit, factor_splits, index_bound, insert_index,
                    iter_partitions, slot_ranges)


class BothRoutesDisagree(Exception):
    """Bosonic-slot and fermionic-slot routes gave different values."""


def _rows(coeffs, trunc, min_exp):
    """A series in z held as int rows: ((even rows, odd rows), trunc,
    min_exp), one row per nonzero (k, int triples) pair of coeffs, filed by
    the parity of k in rising k. Its weight is that of its z-slot: dz for
    a bosonic slot, T for a fermionic one."""
    by_parity = ([], [])
    for k, terms in sorted(coeffs):
        if terms:
            by_parity[k % 2].append((k, terms))
    return by_parity, trunc, min_exp


def _series_rows(series, top):
    """The int rows (see `_rows`) of a FormalSeries read through top."""
    return _rows(((k, int_terms(c.terms)) for k, c in series.coeffs.items()
                  if k <= top), min(series.trunc, top), series.min_exp)


class KernelWeights:
    """Extraction weights z^l / delta-omega and eta_l / delta-omega.

    Extraction is the residue pairing of the assembled quadratic against
    these weights; a column of coefficients (one per output index l) is
    read off from a single division of its raw sums. It reads the quotient
    only at exponents <= -2, so the quadratic only through `top`.
    """

    def __init__(self, bases):
        self.inv_delta = bases.delta_omega.invert()
        self.top = -2 - self.inv_delta.min_exp
        self._inv_rows = sorted(self.inv_delta.coeffs.items())

    def _column(self, q, parity, bound):
        """Column l -> coefficient, for l >= 1 of the given parity, from the
        raw quadratic q of `TrSolver._assemble`; bound is the largest index
        the entries of the column may take, so a nonzero coefficient above
        it raises IndexBoundError, and one at the other parity ParityError."""
        sums, trunc, min_exp = q
        # the residue against the weight of output index l sits at exponent
        # -l-1 of r = q / delta-omega (for the odd weight eta_l = z^(l-1) T
        # via T^2 = z dz); r is known through r_trunc
        inv = self.inv_delta
        r_trunc = min(trunc + inv.min_exp, inv.trunc + min_exp)
        if min_exp + inv.min_exp <= -2 and r_trunc < -2:
            raise TruncationError(
                f"extraction column unresolved: truncation {r_trunc}")
        ring, top = inv.ring, min(r_trunc, -2)
        quotient = {}  # exponent <= top of r -> raw sum of its products
        for k1, acc in sums.items():
            for k2, val in self._inv_rows:
                k = k1 + k2
                if k > top:
                    break
                mul_raw_into(ring, quotient.setdefault(k, {}), val.terms, acc,
                             1, 1)
        column = {}
        for exp, acc in quotient.items():
            val = finish(ring, acc)
            if val is None:
                continue
            index = -exp - 1
            if index % 2 != parity:
                raise ParityError(f"nonzero extraction at index {index}")
            if index > bound:
                raise IndexBoundError(
                    f"extraction index {index} beyond bound {bound}")
            column[index] = val
        return column

    def extract_bosonic(self, q, bound):
        """Column l -> Res z^l q / delta-omega (nonzero only for odd l)."""
        return self._column(q, 1, bound)

    def extract_fermionic(self, q, bound):
        """Column l -> Res eta_l q / delta-omega (nonzero only for even l)."""
        return self._column(q, 0, bound)


class TrSolver(LazyTensor):
    # bound in this class body, not only inherited, so that perfbench can
    # wrap each engine's lookups, levels and runs on their own
    flookup = LazyTensor.flookup
    level_keys = LazyTensor.level_keys
    run = LazyTensor.run

    def __init__(self, curve, chi_max):
        curve.check_depth(chi_max)
        super().__init__(curve.ring, chi_max, curve.epsilon)
        self.bases = CurveBases(curve)
        self.kernel = KernelWeights(self.bases)
        # _assemble reads a factor through kernel.top minus the lowest
        # exponent of its partner. A slot basis series of index c starts at
        # -c - 1, and c is at most the index bound B of chi_max, so a
        # factor is read through kernel.top + B + 1 at most (a derived
        # partner starts one lower, but beside two T factors, whose product
        # lifts the cut by one): every factor's rows stop there.
        self._row_top = self.kernel.top + index_bound(chi_max,
                                                      self.epsilon) + 1
        self._factors = {}
        self._slots = {}
        self._columns = {}

    # --- lower correlation series in the recursion variable -----------------

    def _slot_rows(self, fermionic, c):
        """Int rows (see `_rows`) of the slot basis series of index c, dxi_c
        or eta_c, cut at the row top; listed once per solver."""
        key = (fermionic, c)
        rows = self._slots.get(key)
        if rows is None:
            rows = self._slots[key] = _series_rows(
                (self.bases.dxi_minus, self.bases.eta_minus)[fermionic](c),
                self._row_top)
        return rows

    def eval_lower(self, g, bos, fer, fermionic):
        """Int rows (see `_rows`) of a lower correlation form with z in one
        (bosonic or fermionic) slot beside the canonical indices bos/fer,
        or None when it is zero: a two-point bilinear in closed form, else
        the sum of the basis series weighted by the slice with that slot
        open."""
        key = (g, bos, fer, fermionic)
        if key in self._factors:
            return self._factors[key]
        closed = not g and (len(bos), len(fer)) == \
            ((0, 1) if fermionic else (1, 0))
        bases = self.bases
        # the slice read solves the factor's level, so an empty one is final
        row = None if closed else self.slice(g, bos, fer, fermionic)
        if not (closed or row):
            out = None
        elif not closed:
            ring = self.ring
            sums = {}  # exponent -> raw sum of the weighted basis terms
            trunc, min_exp = bases.trunc, bases.trunc + 1
            for c, val in row.items():
                rows, trunc, low = self._slot_rows(fermionic, c)
                min_exp, right = min(min_exp, low), int_terms(val.terms)
                for k, left in rows[0] + rows[1]:
                    acc = sums.get(k)
                    if acc is None:
                        acc = sums[k] = {}
                    mul_ints_into(ring, acc, left, right, 1)
            out = _rows(((k, finish_ints(acc)) for k, acc in sums.items()),
                        trunc, min_exp)
        elif fermionic:
            k = fer[0]
            out = _series_rows(bases.eta_plus(k) if k else
                               bases.eta_zero.scale(Fraction(1, 2)),
                               self._row_top)
        else:
            out = _series_rows(bases.dxi_plus(bos[0]).scale(bos[0]),
                               self._row_top)
        self._factors[key] = out
        return out

    # --- assembly ------------------------------------------------------------

    def assemble_QBB_FF(self, g, J, K):
        """Raw quadratic with two bosonic or two fermionic z-slots, of
        weight dz^2, whose extraction is the column l -> F(l, J|K)."""
        return self._assemble(g, J, K, False)

    def assemble_QFB(self, g, J, Kx):
        """Raw quadratic with one bosonic and one fermionic z-slot, of
        weight dz T, whose extraction is l -> F(J | l, Kx)."""
        return self._assemble(g, J, Kx, True)

    def _assemble(self, g, J, K, fermionic):
        """The quadratic for a fermionic (else bosonic) output slot, as
        (exponent -> raw sum, trunc, min_exp), of weight dz T (else dz^2):
        one product form per pair of z-slot kinds, (B, B) and (F, F) for a
        bosonic output and (B, F) for a fermionic one. Factors x and y give
        x.sigma(y) for (B, B), x.sigma(y) + sigma(x).y for (B, F), and
        (1/2)(x'.sigma(y) + sigma(x').y) for (F, F).

        Every term is summed into one raw sum per exponent. A mirrored
        term, (B, F), (F, F) or the lower of a swapped pair of (B, B)
        splits, is m + sigma(m) for m = x.sigma(y) (x' for (F, F)): that is
        2m at the exponents k that sigma fixes, odd for dz T and even for
        dz^2, and zero at the others, so it is summed at those exponents
        only, with twice its weight (the 1/2 of (F, F) cancels). The
        quadratic is known through the kernel's top exponent, or less where
        a product is known less far, and each product is summed only that
        far."""
        pairs = ((False, True),) if fermionic else \
            ((False, False), (True, True))
        ring = self.ring
        trunc = min(self.bases.trunc, self.kernel.top)
        min_exp = trunc + 1
        terms = []
        for first, mirrored, x, y, weight in self._factor_pairs(g, J, K,
                                                                pairs):
            x_rows, x_trunc, x_low = x
            y_rows, y_trunc, y_low = y
            # the product x.sigma(y) is known through the lower of its
            # factors' truncations, each lifted by the other's lowest
            # exponent; for (F, F) the derivative lowers x by one exponent
            # and its T times y's T lifts the product by one: T^2 = z dz
            trunc = min(trunc, x_trunc + y_low, y_trunc + x_low)
            min_exp = min(min_exp, x_low + y_low)
            if mirrored and not first:
                weight *= 2  # for (F, F) the 1/2 cancels the 2
            # sigma gives y's coefficient at k2 the sign (-1)^k2, times -1
            # for y's dz in a bosonic slot (sigma fixes T)
            terms.append((x_rows, y_rows, not (first or fermionic), weight,
                          first, mirrored))
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
        for x_rows, seconds, flip, weight, derived, mirrored in terms:
            # y's rows are read by the parity of k2, which fixes their sign
            for rows in x_rows:
                for k1, left in rows:
                    w = weight
                    if derived:  # x' has k1 c at k1 - 1, lifted back by T^2
                        if not k1:
                            continue
                        w = weight * k1
                    # a mirrored term keeps only the exponents sigma fixes
                    parities = ((k1 + fermionic) % 2,) if mirrored else (0, 1)
                    for parity in parities:
                        signed = -w if (parity + flip) % 2 else w
                        for k2, right in seconds[parity]:
                            k = k1 + k2
                            if k > trunc:
                                break
                            acc = sums.get(k)
                            if acc is None:
                                acc = sums[k] = {}
                            mul_ints_into(ring, acc, left, right, signed)
        return sums, trunc, min_exp

    def _factor_pairs(self, g, J, K, pairs):
        """Each term as (first, mirrored, x, y, weight): whether the first
        z-slot is fermionic, whether the term's mirror is added by sigma,
        the int rows of the factors with z in each slot and an integer
        weight. First the F_{g-1} terms with both slots open (but not the
        two-point ones), weighted by the sign of opening the first; then the
        products over the splits of g, J and K (see `store.factor_splits`).
        A (B, B) split and its swap give x.sigma(y) and its sigma-image with
        one weight, as both K parts are even, so only the lower of the two
        is listed, as mirrored, and a split that is its own swap once."""
        if g > 1 or g == 1 and (J or K):
            # the F_{g-1} entries have level 2g + |J| + |K|, and their
            # indices beside J and K share what J and K leave of its bound
            ranges = slot_ranges(deficit(g, J, K, self.epsilon))
            for first, second in pairs:
                for a in ranges[first]:
                    # for (F, F) the slice holds F(J|b,a,K) = -F(J|a,b,K) up
                    # to the sign of sorting a into K
                    opened, sign = insert_index(a, first, J, K)
                    if sign:
                        y = self.eval_lower(g - 1, *opened, second)
                        if y is not None:
                            yield (first, first or second,
                                   self._slot_rows(first, a), y, sign)
        seconds = dict(pairs)  # the second z-slot's kind by the first's
        for first, J1, K1, J2, K2, weight, genera in factor_splits(
                g, J, iter_partitions(K), seconds):
            second = seconds[first]
            for g1 in genera:
                mirrored = first or second
                if not mirrored:
                    side, swap = (g1, J1, K1), (g - g1, J2, K2)
                    if side > swap:
                        continue
                    mirrored = side < swap
                x = self.eval_lower(g1, J1, K1, first)
                if x is None:
                    continue
                y = self.eval_lower(g - g1, J2, K2, second)
                if y is not None:
                    yield first, mirrored, x, y, weight

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


def run_tr(curve, chi_max):
    """All F entries for 3 <= 2g+n+2m <= chi_max via the residue solver."""
    return TrSolver(curve, chi_max).run()
