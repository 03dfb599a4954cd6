"""Canonical storage of correlation coefficient tensors.

An entry F(g; i_1..i_n | j_1..j_2m) is symmetric in the bosonic indices i
and antisymmetric in the fermionic indices j. Entries are stored under the
canonical key (bosonic sorted ascending, fermionic strictly ascending) and
retrieval/storage with permuted index lists applies the sign of the
fermionic sorting permutation. `LazyTensor` is the scaffolding both solvers
share: level enumeration of candidate keys and the memoized, zero-filtered
lookup that computes an entry on first use.
"""

from __future__ import annotations

from operator import itemgetter


class ParityError(Exception):
    """A nonzero entry with an even bosonic or odd fermionic index."""


class StabilityError(Exception):
    """Key below the stability bound 2g + n + 2m > 2."""


class IndexBoundError(Exception):
    """An index exceeding the level bound B(chi) = epsilon*(chi - 2)."""


class MissingDependency(Exception):
    """A lookup beyond the configured maximum level."""


class UnsolvedEntry(Exception):
    """An entry with no slot to solve for, or needed while being solved."""


def index_bound(chi, epsilon=3):
    """Largest index that can appear in an entry at level chi.

    Each level step can raise the reachable index by at most the leading
    exponent epsilon (seeded by index epsilon at level 3); the bound is
    attained, e.g. by the genus-two one-point coefficient at index 9,
    level 5, and by the genus-one two-fermion coefficient at index 6,
    level 4, both on the cubic one-parameter curve.
    """
    return epsilon * (chi - 2)


def slot_ranges(bound):
    """Indices up to bound that a (bosonic, fermionic) slot can hold: odd
    indices >= 1 and even indices >= 0. Every other index gives an
    identically zero entry."""
    return range(1, bound + 1, 2), range(0, bound + 1, 2)


def _sort_with_sign(seq):
    """Sort a sequence, returning (sorted tuple, permutation sign).

    Returns sign 0 if the sequence has a repeated element.
    """
    items = list(seq)
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
            return tuple(items), 0
    return tuple(items), sign


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


def distinct_splits(splits):
    """The distinct (part1, part2) among the splits `iter_partitions`
    yields, each with the number of splits giving it, in order of first
    occurrence.

    For a multiset whose split sign is never used: a term of a sum over
    all splits is then formed once per distinct split and weighted by
    its multiplicity. The caller enumerates the splits, so that every
    enumeration goes through its own `iter_partitions` name, where
    perfbench counts it.
    """
    counts = {}
    for part1, part2, _ in splits:
        counts[part1, part2] = counts.get((part1, part2), 0) + 1
    return [(part1, part2, mult) for (part1, part2), mult in counts.items()]


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
        bos = tuple(sorted(bos))
        fer, sign = _sort_with_sign(fer)
        if sign == 0:
            return self.zero
        value = self.entries.get((g, bos, fer))
        if value is None:
            return self.zero
        return value if sign == 1 else -value

    def set(self, g, bos, fer, value):
        bos_sorted = tuple(sorted(bos))
        fer_sorted, sign = _sort_with_sign(fer)
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
            bound = index_bound(chi, self.epsilon)
            if any(i > bound for i in bos_sorted) or \
                    any(j > bound for j in fer_sorted):
                raise IndexBoundError(
                    f"index beyond bound {bound} at level {chi}: "
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


class LazyTensor:
    """A CorrTensor whose entries are computed on first lookup.

    A solver subclasses this and supplies compute_entry(g, bos, fer) for a
    canonical key; everything else here is shared. With bosonic_only set,
    every key with a fermionic slot is zero and never enumerated.
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

    def value(self, g, bos, fer):
        """Canonical tensor entry, computed on demand and memoized."""
        bos = tuple(sorted(bos))
        fer_sorted, sign = _sort_with_sign(fer)
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
        out = self.tensor.entries.get(key, self.zero)
        return out if sign == 1 else -out

    def flookup(self, g, bos, fer):
        """Tensor entry, zero for out-of-range or unstable arguments.

        A negative genus or index, an odd fermionic count, a fermion on a
        bosonic-only solver and an unstable key are zero at any level; a
        wrong parity or an index above the level bound is zero only up to
        chi_max, above which the lookup raises MissingDependency.
        """
        chi = 2 * g + len(bos) + len(fer)
        if g < 0 or chi <= 2 or len(fer) % 2 or (self.bosonic_only and fer):
            return self.zero
        bound = index_bound(chi, self.epsilon)
        outside = False
        for i in bos:
            if i < 1:
                return self.zero
            if not i % 2 or i > bound:
                outside = True
        for j in fer:
            if j < 0:
                return self.zero
            if j % 2 or j > bound:
                outside = True
        if chi > self.chi_max:
            raise MissingDependency(
                f"entry (g={g}, bos={tuple(bos)}, fer={tuple(fer)}) at "
                f"level {chi} beyond configured maximum {self.chi_max}")
        if outside:
            return self.zero
        return self.value(g, bos, fer)

    def level_keys(self, chi):
        """All canonical candidate keys at a level."""
        odd, even = slot_ranges(index_bound(chi, self.epsilon))
        keys = []
        for g in range(chi // 2 + 1):
            rem = chi - 2 * g
            for n in range(rem + 1):
                two_m = rem - n
                if two_m % 2 or (n == 0 and two_m == 0):
                    continue  # odd fermionic count, or no slot to solve for
                if self.bosonic_only and two_m:
                    continue
                for bos in _multisets(odd, n):
                    for fer in _subsets(even, two_m):
                        keys.append((g, bos, fer))
        return keys

    def run(self):
        """Every entry up to chi_max, level by level; returns the tensor."""
        for chi in range(3, self.chi_max + 1):
            for g, bos, fer in self.level_keys(chi):
                self.value(g, bos, fer)
        return self.tensor


def _multisets(values, size):
    if size == 0:
        yield ()
        return
    for idx, v in enumerate(values):
        for rest in _multisets(values[idx:], size - 1):
            yield (v,) + rest


def _subsets(values, size):
    if size == 0:
        yield ()
        return
    for idx, v in enumerate(values):
        for rest in _subsets(values[idx + 1:], size - 1):
            yield (v,) + rest
