import pytest
from hypothesis import given, strategies as st

from superrec.airyengine import AirySolver
from superrec.curve import CurveData
from superrec.scalars import Ring
from superrec.store import (
    CorrTensor, IndexBoundError, LazyTensor, MissingDependency, ParityError,
    StabilityError, UnsolvedEntry, index_bound, iter_partitions,
    partition_sign)
from superrec.trengine import TrSolver


RING = Ring([])
AIRY = CurveData(RING, 3, {3: RING.one()}, {}, {}, {}, 26)


@pytest.fixture
def tensor():
    return CorrTensor(RING, 6)


def test_symmetric_bosonic_lookup(tensor):
    tensor.set(0, (1, 1, 3), (), RING.rational(7))
    assert tensor.get(0, (3, 1, 1), ()) == RING.rational(7)
    assert tensor.get(0, (1, 3, 1), ()) == RING.rational(7)


def test_antisymmetric_fermionic_lookup(tensor):
    tensor.set(0, (1,), (0, 2), RING.rational(-1))
    assert tensor.get(0, (1,), (2, 0)) == RING.rational(1)
    assert tensor.get(0, (1,), (0, 2)) == RING.rational(-1)


def test_repeated_fermionic_index_is_zero(tensor):
    assert tensor.get(1, (), (2, 2)).is_zero()
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
    with pytest.raises(IndexBoundError):
        tensor.set(0, (5, 1, 1), (), RING.one())
    tensor.set(0, (3, 1, 1), (), RING.one())


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


@given(st.permutations(list(range(6))))
def test_get_set_sign_roundtrip(perm):
    tensor = CorrTensor(RING, 8)
    fer = (0, 2, 4, 6, 8, 10)
    value = RING.rational(3)
    tensor.set(2, (), fer, value)
    permuted = tuple(fer[i] for i in perm)
    got = tensor.get(2, (), permuted)
    # sign of perm equals parity of inversion count
    inversions = sum(1 for a in range(6) for b in range(a + 1, 6)
                     if perm[a] > perm[b])
    expected = value if inversions % 2 == 0 else -value
    assert got == expected


@pytest.mark.parametrize("solver_cls", [TrSolver, AirySolver])
def test_lazy_lookup_guards(solver_cls):
    solver = solver_cls(AIRY, 4)
    with pytest.raises(MissingDependency):
        solver.flookup(2, (1,), ())
    # an entry that needs itself must fail loudly, not read a stale zero
    solver.compute_entry = lambda g, bos, fer: solver.value(g, bos, fer)
    with pytest.raises(UnsolvedEntry, match="cyclic dependency"):
        solver.flookup(0, (1, 1, 1), ())


@pytest.mark.parametrize("bosonic_only", [False, True])
def test_level_keys_are_canonical_candidates(bosonic_only):
    lazy = LazyTensor(RING, 6, 3, bosonic_only)
    full = LazyTensor(RING, 6, 3)
    for chi in range(3, 7):
        keys = lazy.level_keys(chi)
        assert len(set(keys)) == len(keys)
        bound = index_bound(chi)
        for g, bos, fer in keys:
            assert 2 * g + len(bos) + len(fer) == chi
            assert list(bos) == sorted(bos)
            assert all(i % 2 == 1 and i <= bound for i in bos)
            assert all(a < b for a, b in zip(fer, fer[1:]))
            assert all(j % 2 == 0 and j <= bound for j in fer)
        if bosonic_only:
            assert keys == [key for key in full.level_keys(chi)
                            if not key[2]]
            assert lazy.flookup(0, (1,), (0, 2)).is_zero()
