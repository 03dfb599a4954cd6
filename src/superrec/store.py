"""Canonical storage of correlation coefficient tensors.

An entry F(g; i_1..i_n | j_1..j_2m) is symmetric in the bosonic indices i
and antisymmetric in the fermionic indices j. Entries are stored under the
canonical key (bosonic sorted ascending, fermionic strictly ascending; see
`canonical`), and retrieval/storage with permuted index lists applies the
sign of the fermionic sorting permutation. `LazyTensor` is the scaffolding
both solvers share: the enumeration of each level's candidate keys over the
index simplex (see `index_bound`), the memoized, zero-filtered lookup that
computes an entry on first use, and the sector index that hands a solver
every nonzero entry of a lower level with one slot left open.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import groupby
from operator import itemgetter


class ParityError(Exception):
    """A nonzero entry with an even bosonic or odd fermionic index."""


class StabilityError(Exception):
    """Key below the stability bound 2g + n + 2m > 2."""


class IndexBoundError(Exception):
    """Indices summing past the level bound B(chi) = epsilon*(chi - 2)."""


class MissingDependency(Exception):
    """A lookup beyond the configured maximum level."""


class UnsolvedEntry(Exception):
    """An entry with no slot to solve for, or needed while being solved."""


def index_bound(chi, epsilon=3):
    """Largest index sum sum(bos) + sum(fer) of a nonzero entry at level chi.

    Call D = B(chi) - S the deficit of an entry whose indices sum to S (see
    `deficit`). The constraint that solves an entry has the leading term
    tau_epsilon F(b0, ...), which has the entry's deficit D. Every other
    term reads entries of deficit D or lower:
    - the delta parts of C^bb, C^ff and C^bf, in the quadratic and in the
      single-F terms, read entries of the same deficit;
    - every tau_p with p > epsilon, and every phi_{a,b} and psi term, reads
      entries of strictly lower deficit;
    - a tau_p of the other parity reads an entry of the wrong parity, which
      is zero, and tau_1 is not allowed at epsilon 3.
    The constant terms of the level chi = 3 equations sit at D >= 0. So by
    induction on the level and, within a level, on the deficit, an entry
    with D < 0 is zero, and each entry is weighted-homogeneous of degree D
    in the curve data. `CorrTensor.set` checks the rule on every nonzero
    entry it stores. The bound is attained, e.g. by the genus-two one-point
    coefficient at index 9, level 5, and by the genus-one two-fermion
    coefficient at indices (0, 6), level 4, both on the cubic one-parameter
    curve.
    """
    return epsilon * (chi - 2)


def deficit(g, bos, fer, epsilon=3):
    """D = B(chi) - sum(bos) - sum(fer) of the entry F(g; bos | fer) at
    level chi = 2g + len(bos) + len(fer); the entry is zero if D < 0 (see
    `index_bound`)."""
    return index_bound(2 * g + len(bos) + len(fer), epsilon) \
        - sum(bos) - sum(fer)


def slot_ranges(bound):
    """Indices up to bound that a (bosonic, fermionic) slot can hold: odd
    indices >= 1 and even indices >= 0. Every other index gives an
    identically zero entry."""
    return range(1, bound + 1, 2), range(0, bound + 1, 2)


def _simplex_tuples(n, low, budget, strict):
    """The ascending n-tuples of indices low, low + 2, ... whose sum is at
    most budget, in lexicographic order: non-decreasing, or strictly
    ascending if strict. A prefix is extended only while the least sum of
    its completion fits, so no tuple above the budget is formed."""
    if n == 0:
        yield ()
        return
    step = 2 if strict else 0
    first = low
    # n indices from `first` on sum to at least n*first + step*n(n-1)/2
    while n * first + step * n * (n - 1) // 2 <= budget:
        for rest in _simplex_tuples(n - 1, first + step, budget - first,
                                    strict):
            yield (first,) + rest
        first += 2


def simplex_keys(chi, epsilon=3, bosonic_only=False):
    """All canonical keys at level chi with a slot: odd bosonic and even
    fermionic indices in the simplex sum(bos) + sum(fer) <= B(chi), the
    bosonic part pruned by its sum before the fermionic part is formed;
    without fermionic slots if bosonic_only."""
    bound = index_bound(chi, epsilon)
    keys = []
    for g in range(chi // 2 + 1):
        rem = chi - 2 * g
        for n in range(rem + 1):
            two_m = rem - n
            if two_m % 2 or (n == 0 and two_m == 0):
                continue  # odd fermionic count, or no slot to solve for
            if bosonic_only and two_m:
                continue
            for bos in _simplex_tuples(n, 1, bound, False):
                for fer in _simplex_tuples(two_m, 0, bound - sum(bos), True):
                    keys.append((g, bos, fer))
    return keys


def canonical(bos, fer):
    """The canonical key of indices in any order: (bos sorted ascending,
    fer strictly ascending, sign of sorting fer), the sign 0 when fer
    repeats an index."""
    items = list(fer)
    sign = 1
    # insertion sort; fine at these sizes and counts inversions exactly
    for i in range(1, len(items)):
        j = i
        while j > 0 and items[j - 1] > items[j]:
            items[j - 1], items[j] = items[j], items[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(items, items[1:]):
        if a == b:
            sign = 0
            break
    return tuple(sorted(bos)), tuple(items), sign


def insert_index(index, fermionic, bos, fer):
    """The canonical (bos, fer) with index added to the slot of the given
    kind, and the sign of sorting it in from the front of that slot (0 for
    a fermionic index already present)."""
    if fermionic:
        pos = bisect_left(fer, index)
        if pos < len(fer) and fer[pos] == index:
            return None, 0
        return (bos, fer[:pos] + (index,) + fer[pos:]), -1 if pos % 2 else 1
    pos = bisect_left(bos, index)
    return (bos[:pos] + (index,) + bos[pos:], fer), 1


def partition_sign(whole, part1, part2):
    """Sign of the permutation rearranging `whole` into part1 + part2.

    part1 and part2 must be positioned sub-sequences that interleave to
    `whole` (elements taken in order, disjoint positions).
    """
    positions1, positions2 = [], []
    it1, it2 = 0, 0
    for pos, value in enumerate(whole):
        if it1 < len(part1) and part1[it1] == value:
            positions1.append(pos)
            it1 += 1
        elif it2 < len(part2) and part2[it2] == value:
            positions2.append(pos)
            it2 += 1
        else:
            raise ValueError(f"{part1}, {part2} do not interleave to {whole}")
    if it1 != len(part1) or it2 != len(part2):
        raise ValueError(f"{part1}, {part2} do not interleave to {whole}")
    inversions = sum(1 for p1 in positions1 for p2 in positions2 if p1 > p2)
    return -1 if inversions % 2 else 1


def _gather(positions):
    """A function taking a sequence to the tuple of its items at
    `positions`, in order."""
    if not positions:
        return lambda seq: ()
    if len(positions) == 1:
        pos = positions[0]
        return lambda seq: (seq[pos],)
    return itemgetter(*positions)


# n -> the splits of any length-n sequence in mask order, each as the
# gathers of part1's and part2's positions and the sign; built once per
# length and never per sequence, so memory stays at 2^n entries per length
_SPLITS = {}


def _split_table(n):
    table = _SPLITS.get(n)
    if table is None:
        table = []
        for mask in range(1 << n):
            positions1 = [pos for pos in range(n) if mask >> pos & 1]
            positions2 = [pos for pos in range(n) if not mask >> pos & 1]
            inversions = sum(
                1 for p1 in positions1 for p2 in positions2 if p1 > p2)
            table.append((_gather(positions1), _gather(positions2),
                          -1 if inversions % 2 else 1))
        table = _SPLITS[n] = tuple(table)
    return table


def iter_partitions(seq):
    """All ways to split seq into two positioned sub-sequences.

    Yields (part1, part2, sign) with sign = partition_sign(seq, p1, p2),
    in the order of the bit mask choosing part1's positions.
    """
    for gather1, gather2, sign in _split_table(len(seq)):
        yield gather1(seq), gather2(seq), sign


# multiplicity pattern of a sorted sequence (the sizes of its runs of equal
# items, e.g. (2, 1, 3)) -> its distinct splits, each as the gathers of
# part1's and part2's positions and the number of positioned splits giving
# it; built once per pattern, so memory stays at one table per pattern
_DISTINCT = {}


def distinct_splits(seq):
    """The distinct (part1, part2) among the splits `iter_partitions` yields
    for a sorted seq, each with the number of splits giving it, in order of
    first occurrence.

    For a multiset whose split sign is never used: a term of a sum over
    all splits is then formed once per distinct split and weighted by
    its multiplicity. Which positioned splits coincide depends only on the
    run sizes of seq, so the table is shared by every seq of one pattern.
    """
    pattern = tuple(sum(1 for _ in run) for _, run in groupby(seq))
    table = _DISTINCT.get(pattern)
    if table is None:
        # a stand-in sequence with the same runs: its item at a position
        # determines seq's item there
        stand_in = tuple(run for run, size in enumerate(pattern)
                         for _ in range(size))
        gathers, counts = {}, {}
        for gather1, gather2, _ in _split_table(len(stand_in)):
            parts = gather1(stand_in), gather2(stand_in)
            gathers.setdefault(parts, (gather1, gather2))
            counts[parts] = counts.get(parts, 0) + 1
        table = _DISTINCT[pattern] = tuple(
            (gather1, gather2, counts[parts])
            for parts, (gather1, gather2) in gathers.items())
    return [(gather1(seq), gather2(seq), mult)
            for gather1, gather2, mult in table]


class CorrTensor:
    """Map from canonical keys (g, bos, fer) to scalar values."""

    def __init__(self, ring, chi_max, epsilon=3):
        self.ring = ring
        self.chi_max = chi_max
        self.epsilon = epsilon
        self.entries = {}
        # one zero for every read of an absent entry: scalars are never
        # mutated in place, so sharing it is safe
        self.zero = ring.zero()

    @staticmethod
    def chi(g, bos, fer):
        return 2 * g + len(bos) + len(fer)

    def get(self, g, bos, fer):
        bos, fer, sign = canonical(bos, fer)
        if sign == 0:
            return self.zero
        value = self.entries.get((g, bos, fer))
        if value is None:
            return self.zero
        return value if sign == 1 else -value

    def set(self, g, bos, fer, value):
        """Store value at (g, bos, fer), indices in any order."""
        bos_sorted, fer_sorted, sign = canonical(bos, fer)
        chi = self.chi(g, bos_sorted, fer_sorted)
        if chi <= 2:
            raise StabilityError(f"unstable key g={g}, {bos}, {fer}")
        if sign == 0:
            if value:
                raise ParityError(
                    f"nonzero value at repeated fermionic index {fer}")
            return
        if len(fer_sorted) % 2:
            raise ParityError(f"odd number of fermionic slots: {fer}")
        if value:
            if any(i % 2 == 0 for i in bos_sorted):
                raise ParityError(f"even bosonic index in {bos}")
            if any(j % 2 for j in fer_sorted):
                raise ParityError(f"odd fermionic index in {fer}")
            if deficit(g, bos_sorted, fer_sorted, self.epsilon) < 0:
                bound = index_bound(chi, self.epsilon)
                raise IndexBoundError(
                    f"index sum beyond bound {bound} at level {chi}: "
                    f"{bos}, {fer}")
        key = (g, bos_sorted, fer_sorted)
        stored = value if sign == 1 else -value
        if stored:
            self.entries[key] = stored
        else:
            self.entries.pop(key, None)

    def keys_at_chi(self, chi):
        return sorted(key for key in self.entries
                      if self.chi(*key) == chi)

    def sorted_keys(self):
        return sorted(self.entries, key=lambda k: (self.chi(*k),) + k)

    def nonzero_equal(self, other):
        return self.entries == other.entries


# the slice of a sector with no nonzero entry; read, never written
_NO_ENTRIES = {}


class LazyTensor:
    """A CorrTensor whose entries are computed on first lookup.

    A solver subclasses this and supplies compute_entry(g, bos, fer) for a
    canonical key; everything else here is shared. With bosonic_only set,
    every key with a fermionic slot is zero and never enumerated.

    Every nonzero entry is also filed in a sector index under each way of
    opening one of its slots, so that a solver reads the nonzero entries
    F(g; i, bos | fer) or F(g; bos | i, fer) over all i from `slice`
    instead of looking up every index up to the level bound.
    """

    def __init__(self, ring, chi_max, epsilon, bosonic_only=False):
        self.ring = ring
        self.chi_max = chi_max
        self.epsilon = epsilon
        self.bosonic_only = bosonic_only
        self.tensor = CorrTensor(ring, chi_max, epsilon)
        self.zero = self.tensor.zero
        self._done = set()
        self._pending = set()
        # (g, bos, fer, fermionic) -> {i: entry with i in the open slot}
        self._sectors = {}
        # every key of every level up to this one is solved
        self._solved_through = 2

    def value(self, g, bos, fer):
        """Canonical tensor entry, computed on demand and memoized."""
        bos, fer_sorted, sign = canonical(bos, fer)
        if sign == 0:
            return self.zero
        key = (g, bos, fer_sorted)
        if key in self._pending:
            # a memoized read here would silently return zero for an
            # entry that is still being solved
            raise UnsolvedEntry(f"cyclic dependency at {key}")
        if key not in self._done:
            self._done.add(key)
            self._pending.add(key)
            try:
                val = self.compute_entry(g, bos, fer_sorted)
            finally:
                self._pending.discard(key)
            self.tensor.set(g, bos, fer_sorted, val)
            if val:
                self._file(g, bos, fer_sorted, val)
        out = self.tensor.entries.get(key, self.zero)
        return out if sign == 1 else -out

    def _file(self, g, bos, fer, val):
        """Enter a stored nonzero canonical entry in the sector index."""
        sectors = self._sectors
        for pos, i in enumerate(bos):
            if pos and bos[pos - 1] == i:
                continue  # a repeated index opens the same sector
            key = (g, bos[:pos] + bos[pos + 1:], fer, False)
            sectors.setdefault(key, {})[i] = val
        for pos, j in enumerate(fer):
            # moving j from position pos to the front takes pos swaps
            key = (g, bos, fer[:pos] + fer[pos + 1:], True)
            sectors.setdefault(key, {})[j] = -val if pos % 2 else val

    def slice(self, g, bos, fer, fermionic):
        """{i: flookup(g, (i,) + bos, fer)} (fermionic: (g, bos, (i,) +
        fer)) over the nonzero entries, for canonical bos and fer.

        The slice is complete only once its level is solved, so a read
        above the solved levels first solves the levels it lacks.
        """
        if g < 0:
            return _NO_ENTRIES
        chi = 2 * g + len(bos) + len(fer) + 1
        if chi > self._solved_through:
            self._solve_through(chi)
        return self._sectors.get((g, bos, fer, fermionic), _NO_ENTRIES)

    def flookup(self, g, bos, fer):
        """Tensor entry, zero for out-of-range or unstable arguments.

        A negative genus or index, an odd fermionic count, a fermion on a
        bosonic-only solver and an unstable key are zero at any level; a
        wrong parity or an index sum above the level bound is zero only up
        to chi_max, above which the lookup raises MissingDependency.
        """
        chi = 2 * g + len(bos) + len(fer)
        if g < 0 or chi <= 2 or len(fer) % 2 or (self.bosonic_only and fer) \
                or bos and min(bos) < 1 or fer and min(fer) < 0:
            return self.zero
        if chi > self.chi_max:
            raise MissingDependency(
                f"entry (g={g}, bos={tuple(bos)}, fer={tuple(fer)}) at "
                f"level {chi} beyond configured maximum {self.chi_max}")
        if deficit(g, bos, fer, self.epsilon) < 0 \
                or not all(i % 2 for i in bos) or any(j % 2 for j in fer):
            return self.zero
        return self.value(g, bos, fer)

    def level_keys(self, chi):
        """All canonical candidate keys at a level (see `simplex_keys`)."""
        return simplex_keys(chi, self.epsilon, self.bosonic_only)

    def _solve_through(self, chi):
        """Solve every key of the unsolved levels up to chi, in order."""
        if chi > self.chi_max:
            raise MissingDependency(
                f"level {chi} beyond configured maximum {self.chi_max}")
        for level in range(self._solved_through + 1, chi + 1):
            for g, bos, fer in self.level_keys(level):
                self.value(g, bos, fer)
            self._solved_through = level

    def run(self):
        """Every entry up to chi_max, level by level; returns the tensor."""
        self._solve_through(self.chi_max)
        return self.tensor
