"""Tests of the shared index store that both engines read.

Each function of `superrec.store` that an engine reads is checked against
an oracle that shares none of its code:

- `iter_partitions`: `test_iter_partitions_matches_bitmask_enumeration`
  (one bit mask per split) and `test_iter_partitions_signs_match`
  (`partition_sign`, the inversions between two position lists);
- `factor_splits`: `test_factor_splits_match_bitmask_enumeration`;
- `canonical`: `test_canonical_matches_an_inversion_count`;
- `insert_index`: `test_insert_index_matches_a_linear_insertion`;
- `deficit`, and `index_bound` through it:
  `test_deficit_matches_its_definition`;
- `slot_ranges`: `test_slot_ranges_match_a_parity_filter`;
- `CorrTensor.set`: `test_set_matches_its_definition` (the error or the
  sorted key and inversion-count sign of each key of a small box);
- `LazyTensor`'s lookups, slices and level keys: `test_slices_match_a_scan`,
  `test_lazy_queries_equal_run`, `test_level_keys_are_canonical_candidates`
  (a box scan, `_box_keys`) and `test_no_nonzero_entry_outside_the_simplex`.
"""

import inspect
import re
from collections import Counter
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product

import pytest
from hypothesis import given, strategies as st

from superrec.airyengine import AirySolver
from superrec.curve import CurveData
from superrec.scalars import Ring
from superrec.store import (
    CorrTensor, IndexBoundError, LazyTensor, MissingDependency, ParityError,
    StabilityError, UnsolvedEntry, canonical, deficit, distinct_splits,
    factor_splits, index_bound, insert_index, iter_partitions, slot_ranges)
from superrec.trengine import TrSolver
from test_acceptance import airy_curve, random_curve, rich_curve
from test_curve import irregular_curve


RING = Ring([])
AIRY = CurveData(RING, 3, {3: RING.one()}, {}, {}, {}, 26)


def rat(value):
    return RING.rational(Fraction(value))


RICH = CurveData(
    RING, 3,
    {3: rat(1), 5: rat("2/3"), 4: rat("1/2")},
    {(1, 1): rat("1/2"), (1, 2): rat(-3), (2, 2): rat("1/5")},
    {1: rat(2), 2: rat("-1/3")},
    {(1, 2): rat("1/7"), (2, 3): rat(4)},
    30)
IRREGULAR = CurveData(
    RING, 1,
    {1: rat(1), 2: rat("1/2"), 3: rat("-1/3")},
    {(1, 1): rat(1), (1, 3): rat("2/7")},
    {1: rat("-1/2"), 3: rat(1)},
    {(1, 2): rat(3)},
    30)
T_RING = Ring([("t", None)])
PHI11_T = CurveData(T_RING, 3, {3: T_RING.one()},
                    {(1, 1): T_RING.symbol("t")}, {}, {}, 24)
SOLVERS = {
    "tr": TrSolver,
    "airy": AirySolver,
    "airy-bosonic-only": lambda curve, chi_max: AirySolver(
        curve, chi_max, bosonic_only=True),
}


@pytest.fixture
def tensor():
    return CorrTensor(RING, 6)


def test_symmetric_bosonic_lookup(tensor):
    tensor.set(1, (1, 1, 3), (), RING.rational(7))
    assert tensor.get(1, (3, 1, 1), ()) == RING.rational(7)
    assert tensor.get(1, (1, 3, 1), ()) == RING.rational(7)


def test_antisymmetric_fermionic_lookup(tensor):
    tensor.set(0, (1,), (0, 2), RING.rational(-1))
    assert tensor.get(0, (1,), (2, 0)) == RING.rational(1)
    assert tensor.get(0, (1,), (0, 2)) == RING.rational(-1)


def test_repeated_fermionic_index_is_zero(tensor):
    assert not tensor.get(1, (), (2, 2))
    tensor.set(1, (), (2, 2), RING.zero())  # allowed: consistent zero
    with pytest.raises(ParityError):
        tensor.set(1, (), (2, 2), RING.one())


def test_set_with_permuted_fer_stores_signed(tensor):
    tensor.set(0, (1,), (2, 0), RING.rational(5))
    assert tensor.get(0, (1,), (0, 2)) == RING.rational(-5)


def test_parity_rules(tensor):
    with pytest.raises(ParityError):
        tensor.set(0, (2,), (0, 2), RING.one())
    with pytest.raises(ParityError):
        tensor.set(0, (1,), (0, 3), RING.one())
    # zeros at bad parity are silently fine
    tensor.set(0, (2,), (0, 2), RING.zero())


def test_stability(tensor):
    with pytest.raises(StabilityError):
        tensor.set(0, (1,), (), RING.one())
    with pytest.raises(StabilityError):
        tensor.set(1, (), (), RING.one())
    tensor.set(1, (1,), (), RING.one())  # chi = 3 ok


def test_index_bound(tensor):
    assert index_bound(3) == 3
    # the bound limits the index sum, not only each index
    for bos in ((5, 1, 1), (3, 1, 1)):
        with pytest.raises(IndexBoundError):
            tensor.set(0, bos, (), RING.one())
    tensor.set(0, (1, 1, 1), (), RING.one())


def partition_sign(whole, part1, part2):
    """Sign of the permutation rearranging `whole` into part1 + part2, the
    test oracle for the signs of `iter_partitions`.

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


def test_partition_sign_examples():
    assert partition_sign(("a", "b"), ("a",), ("b",)) == 1
    assert partition_sign(("a", "b"), ("b",), ("a",)) == -1
    assert partition_sign(("a", "b", "c", "d"), ("b", "d"), ("a", "c")) == -1


def test_partition_sign_rejects_non_interleaving():
    with pytest.raises(ValueError):
        partition_sign(("a", "b"), ("a",), ("a",))


def test_iter_partitions_signs_match():
    seq = ("w", "x", "y", "z")
    seen = set()
    for p1, p2, sign in iter_partitions(seq):
        assert sign == partition_sign(seq, p1, p2)
        seen.add((p1, p2))
    assert len(seen) == 16


def _bitmask_partitions(seq):
    """Reference enumeration: one bit mask per split, choosing part1's
    positions, with the sign counted from the inversions between the two
    position lists."""
    n = len(seq)
    for mask in range(1 << n):
        positions1 = [pos for pos in range(n) if mask >> pos & 1]
        positions2 = [pos for pos in range(n) if not mask >> pos & 1]
        inversions = sum(
            1 for p1 in positions1 for p2 in positions2 if p1 > p2)
        yield (tuple(seq[pos] for pos in positions1),
               tuple(seq[pos] for pos in positions2),
               -1 if inversions % 2 else 1)


@pytest.mark.parametrize("n", range(7))
def test_iter_partitions_matches_bitmask_enumeration(n):
    for seq in (tuple("abcdefg"[:n]), (1, 1, 3, 3, 3, 5, 5)[:n]):
        assert list(iter_partitions(seq)) == list(_bitmask_partitions(seq))


def test_iter_partitions_is_a_generator():
    # callers drive it lazily and wrap it as a generator
    assert inspect.isgeneratorfunction(iter_partitions)


@pytest.mark.parametrize("seq", [(), (1,), (1, 1), (1, 1, 3), (1, 3, 5),
                                 (1, 1, 1, 3, 3), (1, 3, 3, 5, 5, 5)])
def test_distinct_splits_count_the_positioned_splits(seq):
    splits = distinct_splits(seq)
    assert len({(p1, p2) for p1, p2, _ in splits}) == len(splits)
    assert sum(mult for _, _, mult in splits) == 2 ** len(seq)
    assert {(p1, p2): mult for p1, p2, mult in splits} == Counter(
        (p1, p2) for p1, p2, _ in iter_partitions(seq))


def _bitmask_factor_splits(g, J, K, fermionic):
    """Reference for `factor_splits`: (g1, J1, K1, J2, K2) -> summed weight
    over every bit mask of J's and of K's positions and every genus g1,
    keeping a first fermionic part of the slot's parity (odd beside a
    fermionic slot) and no factor of genus 0 with nothing beside its
    slot."""
    weights = Counter()
    for J1, J2, _ in _bitmask_partitions(J):
        for K1, K2, sign in _bitmask_partitions(K):
            if len(K1) % 2 != fermionic:
                continue
            for g1 in range(g + 1):
                if not (g1 or J1 or K1) or not (g - g1 or J2 or K2):
                    continue
                weights[g1, J1, K1, J2, K2] += sign
    return weights


@pytest.mark.parametrize("fermionic", [False, True])
def test_factor_splits_match_bitmask_enumeration(fermionic):
    for J in ((), (1,), (1, 1), (1, 1, 3), (1, 3, 3, 3), (1, 1, 3, 5, 5)):
        for K in ((), (0,), (0, 2), (0, 2, 4), (0, 2, 4, 6),
                  (0, 2, 4, 6, 8)):
            for g in range(3):
                splits = factor_splits(g, J, iter_partitions(K),
                                       (fermionic,))
                # each split is listed once, with its genus range
                assert len({split[:5] for split in splits}) == len(splits)
                weights = Counter()
                for kind, J1, K1, J2, K2, weight, genera in splits:
                    assert kind == fermionic and isinstance(weight, int)
                    for g1 in genera:
                        weights[g1, J1, K1, J2, K2] += weight
                assert weights == _bitmask_factor_splits(
                    g, J, K, fermionic), (g, J, K)


def test_canonical_matches_an_inversion_count():
    # every fermionic sequence of length <= 4 over four indices, repeats
    # included: the sign is that of the inversion count, 0 on a repeat
    for n in range(5):
        for fer in product(range(0, 8, 2), repeat=n):
            inversions = sum(1 for a in range(n) for b in range(a + 1, n)
                             if fer[a] > fer[b])
            sign = 0 if len(set(fer)) < n else (-1) ** inversions
            bos = tuple(reversed(fer)) + (1,)
            assert canonical(bos, fer) == (
                tuple(sorted(bos)), tuple(sorted(fer)), sign), fer


def _linear_insertion(index, fermionic, bos, fer):
    """Reference for `insert_index`: walk the slot from its front to the
    first index not below the new one, passing one sign per fermion."""
    slot = fer if fermionic else bos
    pos = 0
    while pos < len(slot) and slot[pos] < index:
        pos += 1
    if fermionic and pos < len(slot) and slot[pos] == index:
        return None, 0
    grown = slot[:pos] + (index,) + slot[pos:]
    if not fermionic:
        return (grown, fer), 1
    return (bos, grown), (-1) ** pos


def test_insert_index_matches_a_linear_insertion():
    for k in range(4):
        for fer in combinations(range(0, 10, 2), k):
            for bos in combinations_with_replacement((1, 3, 5), k):
                for index in range(10):
                    for fermionic in (False, True):
                        assert insert_index(index, fermionic, bos, fer) == \
                            _linear_insertion(index, fermionic, bos, fer), \
                            (index, fermionic, bos, fer)


def test_deficit_matches_its_definition():
    # D = B(chi) - sum of the indices, B(chi) = epsilon (chi - 2) at the
    # level chi = 2g + n + m of an entry with n bosonic and m fermionic ones
    for epsilon in (1, 3):
        for g in range(3):
            for n, m in product(range(4), repeat=2):
                for bos in combinations_with_replacement((1, 3, 5, 7), n):
                    for fer in combinations((0, 2, 4, 6), m):
                        chi = 2 * g + n + m
                        total = sum(bos) + sum(fer)
                        assert deficit(g, bos, fer, epsilon) \
                            == epsilon * (chi - 2) - total


def _set_by_definition(g, bos, fer, nonzero, epsilon):
    """Reference for `CorrTensor.set`: the error that storing a zero or a
    nonzero value at (g, bos, fer) raises, None where a zero at a repeated
    fermion stores nothing, or the sorted key and the sign of the fermions'
    inversion count that the value is stored at."""
    n, m = len(bos), len(fer)
    chi = 2 * g + n + m
    if chi <= 2:
        return StabilityError
    if len(set(fer)) < m:
        return ParityError if nonzero else None
    if m % 2:
        return ParityError
    if nonzero and (any(b % 2 == 0 for b in bos) or any(f % 2 for f in fer)):
        return ParityError
    if nonzero and epsilon * (chi - 2) < sum(bos) + sum(fer):
        return IndexBoundError
    inversions = sum(1 for a in range(m) for b in range(a + 1, m)
                     if fer[a] > fer[b])
    return (g, tuple(sorted(bos)), tuple(sorted(fer))), (-1) ** inversions


@pytest.mark.parametrize("epsilon", [1, 3])
def test_set_matches_its_definition(epsilon):
    # every key of genus <= 2 with up to three bosonic indices 0..6 (repeats
    # allowed, written in falling order) and up to three fermionic indices
    # 0..4 in any order, repeats included; each is set to a zero and to a
    # nonzero value in a tensor that holds one other entry, and a zero
    # first finds the entry it removes
    tensor, value, other = CorrTensor(RING, 8, epsilon), rat(3), rat(5)
    seen = Counter()
    for g in range(3):
        for n, m in product(range(4), repeat=2):
            for bos in combinations_with_replacement(range(6, -1, -1), n):
                for fer in product(range(5), repeat=m):
                    for nonzero in (False, True):
                        want = _set_by_definition(g, bos, fer, nonzero,
                                                  epsilon)
                        tensor.entries = {"other": other}
                        if isinstance(want, tuple) and not nonzero:
                            tensor.entries[want[0]] = other
                        if isinstance(want, type):
                            with pytest.raises(want):
                                tensor.set(g, bos, fer, value if nonzero
                                           else RING.zero())
                            assert tensor.entries == {"other": other}
                            seen[want.__name__] += 1
                            continue
                        tensor.set(g, bos, fer,
                                   value if nonzero else RING.zero())
                        if want is not None and nonzero:
                            key, sign = want
                            assert tensor.entries == {
                                "other": other, key: value * sign}, \
                                (g, bos, fer)
                            seen[f"stored with sign {sign}"] += 1
                        else:
                            assert tensor.entries == {"other": other}, \
                                (g, bos, fer, nonzero)
                            seen["nothing" if want is None
                                 else "removed"] += 1
    # every branch of the definition is reached
    assert set(seen) == {"StabilityError", "ParityError", "IndexBoundError",
                         "stored with sign 1", "stored with sign -1",
                         "nothing", "removed"}, seen


def test_slot_ranges_match_a_parity_filter():
    for bound in range(-2, 12):
        bosonic, fermionic = slot_ranges(bound)
        indices = [i for i in range(-4, bound + 1) if i >= 0]
        assert list(bosonic) == [i for i in indices if i % 2]
        assert list(fermionic) == [i for i in indices if i % 2 == 0]


@given(st.permutations(list(range(6))))
def test_get_set_sign_roundtrip(perm):
    tensor = CorrTensor(RING, 12)
    fer = (0, 2, 4, 6, 8, 10)
    value = RING.rational(3)
    tensor.set(3, (), fer, value)
    permuted = tuple(fer[i] for i in perm)
    got = tensor.get(3, (), permuted)
    # sign of perm equals parity of inversion count
    inversions = sum(1 for a in range(6) for b in range(a + 1, 6)
                     if perm[a] > perm[b])
    expected = value if inversions % 2 == 0 else -value
    assert got == expected


@pytest.mark.parametrize("solver_cls", [TrSolver, AirySolver])
def test_lazy_lookup_guards(solver_cls):
    solver = solver_cls(AIRY, 4)
    with pytest.raises(MissingDependency, match=re.escape(
            "entry (g=2, bos=(1,), fer=()) at level 5 beyond configured "
            "maximum 4")):
        solver.flookup(2, (1,), ())
    # an entry that needs itself must fail loudly, not read a stale zero
    solver.compute_entry = lambda g, bos, fer: solver.value(g, bos, fer)
    with pytest.raises(UnsolvedEntry, match="cyclic dependency"):
        solver.flookup(0, (1, 1, 1), ())


def _box_keys(chi, epsilon, bosonic_only=False):
    """Reference enumeration: every canonical key of a level (bosonic
    indices odd and sorted, fermionic ones even and strictly ascending)
    whose indices are each at most the level bound, in the order the
    simplex keys are listed."""
    odd, even = slot_ranges(index_bound(chi, epsilon))
    for g in range(chi // 2 + 1):
        rem = chi - 2 * g
        for n in range(rem + 1):
            two_m = rem - n
            if two_m % 2 or (n == 0 and two_m == 0) or \
                    (bosonic_only and two_m):
                continue
            for bos in combinations_with_replacement(odd, n):
                for fer in combinations(even, two_m):
                    yield g, bos, fer


def _in_simplex(chi, epsilon, bos, fer):
    return sum(bos) + sum(fer) <= index_bound(chi, epsilon)


@pytest.mark.parametrize("bosonic_only", [False, True])
def test_level_keys_are_canonical_candidates(bosonic_only):
    for epsilon in (1, 3):
        lazy = LazyTensor(RING, 7, epsilon, bosonic_only)
        full = LazyTensor(RING, 7, epsilon)
        for chi in range(3, 8):
            keys = lazy.level_keys(chi)
            assert keys == [
                (g, bos, fer)
                for g, bos, fer in _box_keys(chi, epsilon, bosonic_only)
                if _in_simplex(chi, epsilon, bos, fer)]
            # the simplex is where the deficit is not negative
            listed = set(keys)
            for g, bos, fer in _box_keys(chi, epsilon, bosonic_only):
                assert ((g, bos, fer) in listed) \
                    == (deficit(g, bos, fer, epsilon) >= 0), (g, bos, fer)
            if bosonic_only:
                assert keys == [key for key in full.level_keys(chi)
                                if not key[2]]
                assert not lazy.flookup(0, (1,), (0, 2))
    # keys through chi 6 and 7 at epsilon 3: 145 of 5,157 and 353 of 44,453
    # of the box lie in the simplex
    if not bosonic_only:
        for chi_max, simplex, box in ((6, 145, 5157), (7, 353, 44453)):
            levels = range(3, chi_max + 1)
            assert sum(len(LazyTensor(RING, 7, 3).level_keys(chi))
                       for chi in levels) == simplex
            assert sum(len(list(_box_keys(chi, 3))) for chi in levels) \
                == box


# The curves on which no entry outside the simplex may be nonzero: every
# seed of the shared random curves (both epsilons), the named test curves,
# the Bessel curve, and an epsilon-3 curve with the even dilaton shifts
# tau_2, tau_4 and tau_6 beside every polarization.
SIMPLEX_CURVES = {
    **{f"random{seed}": random_curve(seed) for seed in range(20)},
    "rich": rich_curve(),
    "irregular": irregular_curve(),
    "airy": airy_curve(),
    "bessel": CurveData(RING, 1, {1: rat(1)}, {}, {}, {}, 12),
    "tau2-4-6": CurveData(
        RING, 3,
        {2: rat("1/2"), 3: rat(1), 4: rat(-2), 6: rat("2/3")},
        {(1, 1): rat("1/3"), (1, 2): rat(1), (2, 3): rat("-1/2")},
        {1: rat(2), 3: rat("-1/5")},
        {(1, 2): rat("3/4"), (2, 3): rat(-1)},
        24),
}


@pytest.mark.parametrize("solver_cls", [TrSolver, AirySolver])
def test_no_nonzero_entry_outside_the_simplex(solver_cls):
    """Solve every key of the index box at levels up to 6 that lies outside
    the simplex sum(bos) + sum(fer) <= B(chi), on a solved tensor, and
    find it zero: the enumeration and the lookups skip nothing nonzero."""
    solved = 0
    for label, curve in SIMPLEX_CURVES.items():
        solver = solver_cls(curve, 6)
        solver.run()
        for chi in range(3, 7):
            for g, bos, fer in _box_keys(chi, curve.epsilon):
                if not _in_simplex(chi, curve.epsilon, bos, fer):
                    assert not solver.compute_entry(g, bos, fer), \
                        (label, g, bos, fer)
                    solved += 1
    # the box keys outside the simplex at levels 3 to 6, over the curves
    assert solved == 65792


# (g, bos, fer) looked up on solvers with chi_max 4, by class. The first
# classes are zero at any level, so above chi_max too; wrong parity and an
# index above the level bound are zero only up to chi_max.
ZERO_AT_ANY_LEVEL = {
    "negative genus": (-1, (1,) * 8, ()),
    "bosonic index below 1": (2, (-1,), ()),
    "negative fermionic index": (2, (1,), (-2, 0)),
    "odd fermionic count": (2, (1,), (0,)),
    "unstable": (1, (), ()),
    "unstable, no genus": (0, (1, 1), ()),
}
ZERO_UP_TO_CHI_MAX = {
    "even bosonic index": (0, (2, 1, 1), ()),
    "odd fermionic index": (0, (1,), (0, 3)),
    "bosonic index above the bound": (0, (5, 1, 1), ()),
    "fermionic index above the bound": (0, (1,), (0, 4)),
    "index sum above the bound": (0, (3, 1, 1), ()),
}
MISSING_ABOVE_CHI_MAX = {
    "even bosonic index": (2, (2,), ()),
    "bosonic index above the bound": (2, (11,), ()),
    "index sum above the bound": (1, (3, 3, 5), ()),
}
# with fermions, which a bosonic-only solver reads as zero at any level
FERMIONIC_ABOVE_CHI_MAX = {
    "fermions": (2, (1,), (0, 2)),
    "odd fermionic index": (2, (1,), (0, 3)),
}


@pytest.mark.parametrize("make", [
    lambda: TrSolver(AIRY, 4), lambda: AirySolver(AIRY, 4),
    lambda: AirySolver(AIRY, 4, bosonic_only=True)],
    ids=["tr", "airy", "airy-bosonic-only"])
def test_flookup_precedence(make):
    solver = make()

    def never(g, bos, fer):
        raise AssertionError(f"zero lookup reached the solver: {g, bos, fer}")
    solver.compute_entry = never
    for what, key in {**ZERO_AT_ANY_LEVEL, **ZERO_UP_TO_CHI_MAX}.items():
        assert solver.flookup(*key) is solver.zero, what
    for key in MISSING_ABOVE_CHI_MAX.values():
        with pytest.raises(MissingDependency):
            solver.flookup(*key)
    for what, key in FERMIONIC_ABOVE_CHI_MAX.items():
        if solver.bosonic_only:
            assert solver.flookup(*key) is solver.zero, what
        else:
            with pytest.raises(MissingDependency):
                solver.flookup(*key)


@pytest.mark.parametrize("curve", [RICH, PHI11_T], ids=["rich", "phi11(t)"])
@pytest.mark.parametrize("make", SOLVERS.values(), ids=SOLVERS)
def test_lazy_queries_equal_run(curve, make):
    """A fresh solver's query of a chi-6 entry reads the lower levels as
    slices, which are complete only once those levels are solved in
    full; the query must agree with the level-by-level run."""
    tensor = make(curve, 6).run()
    keys = sorted(key for key in tensor.entries if CorrTensor.chi(*key) == 6)
    sample = keys[::-(-len(keys) // 5)]
    assert len(sample) == 5
    for key in sample:
        assert make(curve, 6).flookup(*key) == tensor.entries[key], key


def _sectors(solver, chi):
    """Every (g, bos, fer, fermionic) whose slice is at level chi: each
    candidate key of the level with one slot opened."""
    out = set()
    for g, bos, fer in LazyTensor.level_keys(solver, chi):
        for pos in range(len(bos)):
            out.add((g, bos[:pos] + bos[pos + 1:], fer, False))
        for pos in range(len(fer)):
            out.add((g, bos, fer[:pos] + fer[pos + 1:], True))
    return out


@pytest.mark.parametrize("curve", [AIRY, RICH, IRREGULAR],
                         ids=["airy", "rich", "irregular"])
@pytest.mark.parametrize("solver_cls", [TrSolver, AirySolver])
def test_slices_match_a_scan(curve, solver_cls):
    """After a run, each slice holds exactly the nonzero lookups with its
    slot open: F(g; i, bos | fer), or F(g; bos | i, fer) with the sign of
    moving i to the front of the fermions."""
    solver = solver_cls(curve, 5)
    solver.run()
    seen = set()
    for chi in range(3, 6):
        odd, even = slot_ranges(index_bound(chi, curve.epsilon))
        for g, bos, fer, fermionic in _sectors(solver, chi):
            if fermionic:
                scan = {j: solver.flookup(g, bos, (j,) + fer) for j in even}
            else:
                scan = {i: solver.flookup(g, (i,) + bos, fer) for i in odd}
            want = {i: val for i, val in scan.items() if val}
            assert solver.slice(g, bos, fer, fermionic) == want, \
                (g, bos, fer, fermionic)
            if want:
                seen.add((g, bos, fer, fermionic))
    assert seen == set(solver._sectors)
    assert any(fermionic and fer for _, _, fer, fermionic in seen)


@pytest.mark.parametrize("solver_cls", [TrSolver, AirySolver])
def test_run_lists_each_level_once_in_order(monkeypatch, solver_cls):
    """perfbench times one span per level between level_keys calls, so a
    run must ask for each level's keys once, in order, and no slice read
    inside it may solve a level again."""
    levels = []
    level_keys = solver_cls.level_keys

    def counted(solver, chi):
        levels.append(chi)
        return level_keys(solver, chi)
    monkeypatch.setattr(solver_cls, "level_keys", counted)
    solver_cls(RICH, 6).run()
    assert levels == [3, 4, 5, 6]
